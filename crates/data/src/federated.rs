//! The federated dataset: per-client train/test splits plus ground truth.

use crate::dataset::{ClientData, Dataset};
use crate::partition::Partition;
use crate::profiles::DatasetProfile;
use crate::synth::generate_pool;
use fedclust_tensor::rng::{derive, streams};
use rand::seq::SliceRandom;
use rand::Rng;

/// A full federated learning dataset: `num_clients` clients, each with a
/// local train/test split, plus the metadata experiments need (ground-truth
/// label sets per client, dataset geometry).
#[derive(Debug, Clone)]
pub struct FederatedDataset {
    /// Per-client local data.
    pub clients: Vec<ClientData>,
    /// The dataset profile this was synthesised from.
    pub profile: DatasetProfile,
    /// The partition strategy used.
    pub partition: Partition,
    /// Number of classes.
    pub num_classes: usize,
    /// Image channels.
    pub channels: usize,
    /// Image height.
    pub height: usize,
    /// Image width.
    pub width: usize,
}

/// Configuration for building a [`FederatedDataset`].
#[derive(Debug, Clone, Copy)]
pub struct FederatedConfig {
    /// Number of clients.
    pub num_clients: usize,
    /// Pool samples generated per class.
    pub samples_per_class: usize,
    /// Root seed for synthesis and partitioning.
    pub seed: u64,
}

impl FederatedDataset {
    /// Synthesise and partition a federated dataset.
    pub fn build(profile: DatasetProfile, partition: Partition, cfg: &FederatedConfig) -> Self {
        let params = profile.params();
        let pool = generate_pool(profile, cfg.samples_per_class, cfg.seed);
        let mut rng = derive(cfg.seed, &[streams::PARTITION, profile.stream_id()]);
        let assignment =
            partition.assign(&pool.labels, params.num_classes, cfg.num_clients, &mut rng);

        let clients = assignment
            .iter()
            .map(|indices| split_client(&pool, indices, &mut rng))
            .collect();

        FederatedDataset {
            clients,
            profile,
            partition,
            num_classes: params.num_classes,
            channels: params.channels,
            height: params.height,
            width: params.width,
        }
    }

    /// Synthesise a federated dataset with an *explicit* label set per
    /// client (e.g. clients 0–4 hold classes {0..5}, clients 5–9 hold
    /// {5..10} — the two-group setup of the paper's Fig. 1 study). Samples
    /// of each class are split evenly among the clients that own it;
    /// classes owned by nobody are dropped.
    pub fn build_grouped(
        profile: DatasetProfile,
        client_labels: &[Vec<usize>],
        cfg: &FederatedConfig,
    ) -> Self {
        let params = profile.params();
        let pool = generate_pool(profile, cfg.samples_per_class, cfg.seed);
        let mut rng = derive(cfg.seed, &[streams::PARTITION, profile.stream_id(), 99]);

        let mut owners: Vec<Vec<usize>> = vec![Vec::new(); params.num_classes];
        for (client, labels) in client_labels.iter().enumerate() {
            for &l in labels {
                assert!(l < params.num_classes, "label {} out of range", l);
                owners[l].push(client);
            }
        }
        let mut by_class: Vec<Vec<usize>> = vec![Vec::new(); params.num_classes];
        for (i, &l) in pool.labels.iter().enumerate() {
            by_class[l].push(i);
        }
        let mut assignment: Vec<Vec<usize>> = vec![Vec::new(); client_labels.len()];
        for (l, samples) in by_class.iter().enumerate() {
            if owners[l].is_empty() {
                continue;
            }
            let mut shuffled = samples.clone();
            shuffled.shuffle(&mut rng);
            for (i, &s) in shuffled.iter().enumerate() {
                assignment[owners[l][i % owners[l].len()]].push(s);
            }
        }
        let clients = assignment
            .iter()
            .map(|indices| split_client(&pool, indices, &mut rng))
            .collect();
        FederatedDataset {
            clients,
            profile,
            partition: Partition::Iid, // placeholder tag; grouping was explicit
            num_classes: params.num_classes,
            channels: params.channels,
            height: params.height,
            width: params.width,
        }
    }

    /// Number of clients.
    pub fn num_clients(&self) -> usize {
        self.clients.len()
    }

    /// Total training samples across clients (the FedAvg normaliser `N`).
    pub fn total_train_samples(&self) -> usize {
        self.clients.iter().map(|c| c.train_samples()).sum()
    }

    /// Each client's label set (sorted, deduplicated) — the ground truth
    /// that weight-driven clustering should recover under label skew.
    pub fn client_label_sets(&self) -> Vec<Vec<usize>> {
        self.clients
            .iter()
            .map(|c| {
                let mut l = c.train.label_set();
                l.extend(c.test.label_set());
                l.sort_unstable();
                l.dedup();
                l
            })
            .collect()
    }

    /// Group clients by identical label sets; returns a cluster id per
    /// client. Used as ground truth for ARI/NMI cluster quality metrics.
    pub fn ground_truth_groups(&self) -> Vec<usize> {
        let sets = self.client_label_sets();
        let mut seen: Vec<&Vec<usize>> = Vec::new();
        sets.iter()
            .map(|s| {
                if let Some(pos) = seen.iter().position(|t| *t == s) {
                    pos
                } else {
                    seen.push(s);
                    seen.len() - 1
                }
            })
            .collect()
    }

    /// Split off the last `n` clients as "newcomers" (Table 6's setup):
    /// returns `(federation of the rest, newcomers)`.
    pub fn split_newcomers(mut self, n: usize) -> (FederatedDataset, Vec<ClientData>) {
        assert!(n < self.clients.len(), "cannot split off every client");
        let newcomers = self.clients.split_off(self.clients.len() - n);
        (self, newcomers)
    }
}

/// Fraction of each client's samples used for training (the rest is its
/// local test set).
const TRAIN_FRACTION: f32 = 0.8;

/// Split one client's sample indices into train/test datasets,
/// stratified per class so the local test set mirrors the local
/// distribution.
fn split_client(pool: &Dataset, indices: &[usize], rng: &mut impl Rng) -> ClientData {
    // Group by label for a stratified split.
    let mut by_label: std::collections::BTreeMap<usize, Vec<usize>> =
        std::collections::BTreeMap::new();
    for &i in indices {
        by_label.entry(pool.labels[i]).or_default().push(i);
    }
    let mut train_idx = Vec::new();
    let mut test_idx = Vec::new();
    for (_, mut group) in by_label {
        group.shuffle(rng);
        let n_train = ((group.len() as f32) * TRAIN_FRACTION).round() as usize;
        // Keep at least one sample in each split when possible.
        let n_train = n_train.clamp(
            if group.len() > 1 { 1 } else { 0 },
            group.len().saturating_sub(usize::from(group.len() > 1)),
        );
        train_idx.extend_from_slice(&group[..n_train]);
        test_idx.extend_from_slice(&group[n_train..]);
    }
    if test_idx.is_empty() && train_idx.len() > 1 {
        if let Some(moved) = train_idx.pop() {
            test_idx.push(moved);
        }
    }
    ClientData {
        train: pool.subset(&train_idx),
        test: pool.subset(&test_idx),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> FederatedConfig {
        FederatedConfig {
            num_clients: 10,
            samples_per_class: 50,
            seed: 1,
        }
    }

    #[test]
    fn build_label_skew_dataset() {
        let fd = FederatedDataset::build(
            DatasetProfile::FmnistLike,
            Partition::LabelSkew { fraction: 0.2 },
            &small_cfg(),
        );
        assert_eq!(fd.num_clients(), 10);
        for c in &fd.clients {
            assert!(!c.train.is_empty(), "client has empty train set");
            assert!(!c.test.is_empty(), "client has empty test set");
        }
        // All 500 samples distributed.
        let total: usize = fd.clients.iter().map(|c| c.total_samples()).sum();
        assert_eq!(total, 500);
    }

    #[test]
    fn label_sets_are_limited_under_skew() {
        let fd = FederatedDataset::build(
            DatasetProfile::FmnistLike,
            Partition::LabelSkew { fraction: 0.2 },
            &small_cfg(),
        );
        for s in fd.client_label_sets() {
            assert!(s.len() <= 3, "label set too large: {:?}", s);
        }
    }

    #[test]
    fn ground_truth_groups_are_consistent() {
        let fd = FederatedDataset::build(
            DatasetProfile::FmnistLike,
            Partition::LabelSkew { fraction: 0.5 },
            &small_cfg(),
        );
        let groups = fd.ground_truth_groups();
        let sets = fd.client_label_sets();
        assert_eq!(groups.len(), 10);
        for i in 0..10 {
            for j in 0..10 {
                assert_eq!(groups[i] == groups[j], sets[i] == sets[j]);
            }
        }
    }

    #[test]
    fn deterministic_build() {
        let a = FederatedDataset::build(
            DatasetProfile::Cifar10Like,
            Partition::Dirichlet { alpha: 0.1 },
            &small_cfg(),
        );
        let b = FederatedDataset::build(
            DatasetProfile::Cifar10Like,
            Partition::Dirichlet { alpha: 0.1 },
            &small_cfg(),
        );
        assert_eq!(a.clients[3].train.labels, b.clients[3].train.labels);
        assert_eq!(
            a.clients[3].train.images.data(),
            b.clients[3].train.images.data()
        );
    }

    #[test]
    fn newcomer_split() {
        let fd = FederatedDataset::build(
            DatasetProfile::FmnistLike,
            Partition::LabelSkew { fraction: 0.2 },
            &small_cfg(),
        );
        let (rest, newcomers) = fd.split_newcomers(2);
        assert_eq!(rest.num_clients(), 8);
        assert_eq!(newcomers.len(), 2);
    }

    #[test]
    fn train_test_split_is_stratified() {
        let fd = FederatedDataset::build(
            DatasetProfile::FmnistLike,
            Partition::LabelSkew { fraction: 0.3 },
            &FederatedConfig {
                num_clients: 5,
                samples_per_class: 100,
                seed: 3,
            },
        );
        for c in &fd.clients {
            // Every trained label should also appear in the local test set
            // (sample counts per client per class are large enough here).
            let train_set = c.train.label_set();
            let test_set = c.test.label_set();
            assert_eq!(train_set, test_set);
        }
    }
}
