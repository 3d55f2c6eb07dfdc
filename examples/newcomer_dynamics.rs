//! Client dynamics: incorporating newcomers after federation
//! (the paper's Algorithm 2 / Table 6 scenario).
//!
//! 16 clients in two latent groups federate with FedClust; 4 more clients
//! join afterwards. Each newcomer briefly trains the initial model, uploads
//! its final-layer weights, is matched to the nearest cluster (Eq. 4), and
//! personalizes the received cluster model for a few epochs.
//!
//! ```sh
//! cargo run --release --example newcomer_dynamics
//! ```

use fedclust::newcomer::incorporate_all;
use fedclust::FedClust;
use fedclust_data::{DatasetProfile, FederatedDataset};
use fedclust_fl::{run_federation, FlConfig, NoCheckpoints};
use fedclust_nn::models::ModelSpec;

fn main() {
    // 20 clients in two ground-truth groups (classes 0-4 vs 5-9).
    let groups: Vec<Vec<usize>> = (0..20)
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
        &fedclust_data::federated::FederatedConfig {
            num_clients: 20,
            samples_per_class: 100,
            train_fraction: 0.8,
            seed: 5,
        },
    );
    let truth = full.ground_truth_groups();
    let newcomer_truth: Vec<usize> = truth[16..].to_vec();
    let (fd, newcomers) = full.split_newcomers(4);

    let cfg = FlConfig {
        model: ModelSpec::LeNet5,
        rounds: 8,
        sample_rate: 0.5,
        local_epochs: 3,
        batch_size: 10,
        lr: 0.05,
        momentum: 0.9,
        weight_decay: 0.0,
        eval_every: 4,
        seed: 5,
        dropout_rate: 0.0,
        faults: fedclust_fl::FaultPlan::none(),
        codec: fedclust_fl::CodecSpec::none(),
    };

    println!("federating {} clients…", fd.num_clients());
    let Ok((result, federation)) =
        run_federation(&FedClust::default(), &fd, &cfg, NoCheckpoints, None);
    println!(
        "federation done: {} clusters, avg local test accuracy {:.2}%",
        federation.saved.outcome.num_clusters,
        result.final_acc * 100.0
    );

    println!(
        "\nincorporating {} newcomers (Algorithm 2)…",
        newcomers.len()
    );
    // Warm-up, weight selection and metric are the federation's own; 5 is
    // the personalization epochs on the received cluster model.
    let outcomes = incorporate_all(&federation, &newcomers, &cfg, 5);
    println!(
        "{:<10} {:>14} {:>12} {:>12}",
        "newcomer", "true group", "assigned", "accuracy"
    );
    for (i, o) in outcomes.iter().enumerate() {
        println!(
            "{:<10} {:>14} {:>12} {:>11.2}%",
            format!("client {}", fd.num_clients() + i),
            newcomer_truth[i],
            o.cluster,
            o.accuracy * 100.0
        );
    }
    let avg = outcomes.iter().map(|o| o.accuracy as f64).sum::<f64>() / outcomes.len() as f64;
    println!("\naverage newcomer accuracy: {:.2}%", avg * 100.0);
}
