//! Diagnostic: inspect FedClust's one-shot clustering on each dataset at
//! benchmark scale — the merge-distance profile of the dendrogram, the
//! cluster count each λ heuristic would choose, and its agreement (ARI)
//! with the ground-truth label-set groups.

use fedclust::clustering::{outcome_from_dendrogram, LambdaSelect};
use fedclust::lambda_sweep;
use fedclust::FedClust;
use fedclust_bench::scale::Knobs;
use fedclust_cluster::metrics::adjusted_rand_index;
use fedclust_data::{DatasetProfile, FederatedDataset, Partition};

fn main() {
    let knobs = Knobs::from_env_or_exit();
    let partition = Partition::LabelSkew { fraction: 0.2 };
    for profile in DatasetProfile::ALL {
        for seed in [42u64, 1042] {
            let scale = knobs.scale(profile, seed);
            let fd = FederatedDataset::build(profile, partition, &scale.federated);
            let cfg = scale.fl;
            let dendro = lambda_sweep::dendrogram(&fd, &cfg, &FedClust::default());
            let truth = fd.ground_truth_groups();
            let n_truth = truth.iter().copied().max().unwrap_or(0) + 1;
            println!(
                "## {} — {} clients, {} ground-truth groups",
                profile.name(),
                fd.num_clients(),
                n_truth
            );
            let d: Vec<f32> = dendro.merges().iter().map(|m| m.distance).collect();
            println!(
                "merge distances: min {:.3} q25 {:.3} median {:.3} q75 {:.3} max {:.3}",
                d.first().copied().unwrap_or(0.0),
                d[d.len() / 4],
                d[d.len() / 2],
                d[3 * d.len() / 4],
                d.last().copied().unwrap_or(0.0),
            );
            print!("profile: ");
            for v in d.iter() {
                print!("{:.3} ", v);
            }
            println!();
            for (name, select) in [
                ("auto-gap", LambdaSelect::AutoGap),
                ("auto-relgap", LambdaSelect::Auto),
            ] {
                let o = outcome_from_dendrogram(&dendro, select);
                let ari = adjusted_rand_index(&o.labels, &truth);
                println!(
                    "{}: λ={:.3} → {} clusters, ARI {:.3}",
                    name, o.lambda, o.num_clusters, ari
                );
            }
            // Best achievable over all k-cuts, for reference.
            let mut best = (0usize, -1.0f64);
            for k in 1..fd.num_clients() {
                let labels = dendro.cut_k(k);
                let ari = adjusted_rand_index(&labels, &truth);
                if ari > best.1 {
                    best = (k, ari);
                }
            }
            println!(
                "seed {}: best k-cut vs truth: k={} ARI {:.3}\n",
                seed, best.0, best.1
            );
        }
    }
}
