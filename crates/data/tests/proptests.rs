//! Property-based tests of dataset synthesis and partitioning.

use fedclust_data::federated::FederatedConfig;
use fedclust_data::synth::generate_pool;
use fedclust_data::{DatasetProfile, FederatedDataset, Partition};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Pool generation yields finite data with exact per-class counts for
    /// every profile, sample count, and seed.
    #[test]
    fn pools_are_well_formed(
        profile_idx in 0usize..4,
        spc in 1usize..8,
        seed in 0u64..100,
    ) {
        let profile = DatasetProfile::ALL[profile_idx];
        let p = profile.params();
        let d = generate_pool(profile, spc, seed);
        prop_assert_eq!(d.len(), p.num_classes * spc);
        prop_assert!(!d.images.has_non_finite());
        prop_assert_eq!(d.class_counts(p.num_classes), vec![spc; p.num_classes]);
    }

    /// Federated builds conserve samples: every pooled sample lands in
    /// exactly one client's train or test split, and no split is empty.
    #[test]
    fn federated_builds_conserve_samples(
        seed in 0u64..50,
        num_clients in 2usize..8,
        strategy in 0usize..3,
    ) {
        let partition = match strategy {
            0 => Partition::Iid,
            1 => Partition::LabelSkew { fraction: 0.3 },
            _ => Partition::Dirichlet { alpha: 0.2 },
        };
        let spc = 30;
        let fd = FederatedDataset::build(
            DatasetProfile::FmnistLike,
            partition,
            &FederatedConfig { num_clients, samples_per_class: spc, seed },
        );
        let total: usize = fd.clients.iter().map(|c| c.total_samples()).sum();
        prop_assert_eq!(total, 10 * spc);
        for c in &fd.clients {
            prop_assert!(!c.train.is_empty());
            prop_assert!(!c.test.is_empty());
        }
        prop_assert_eq!(fd.ground_truth_groups().len(), num_clients);
    }

    /// Builds are deterministic in the seed.
    #[test]
    fn federated_builds_are_deterministic(seed in 0u64..50) {
        let cfg = FederatedConfig {
            num_clients: 4,
            samples_per_class: 10,
            seed,
        };
        let a = FederatedDataset::build(DatasetProfile::SvhnLike, Partition::Dirichlet { alpha: 0.5 }, &cfg);
        let b = FederatedDataset::build(DatasetProfile::SvhnLike, Partition::Dirichlet { alpha: 0.5 }, &cfg);
        for (ca, cb) in a.clients.iter().zip(&b.clients) {
            prop_assert_eq!(&ca.train.labels, &cb.train.labels);
            prop_assert_eq!(ca.train.images.data(), cb.train.images.data());
        }
    }

    /// Label-skew bounds: clients hold ⌈fraction·L⌉ chosen labels each
    /// (orphan repair may add more to *some* clients, but the total number
    /// of extra labels across all clients is at most L), and every label
    /// ends up owned by at least one client.
    #[test]
    fn label_skew_label_budget(seed in 0u64..50, frac_pct in 1u32..6) {
        let fraction = frac_pct as f32 / 10.0;
        let num_clients = 6usize;
        let fd = FederatedDataset::build(
            DatasetProfile::FmnistLike,
            Partition::LabelSkew { fraction },
            &FederatedConfig { num_clients, samples_per_class: 40, seed },
        );
        let per_client = (fraction * 10.0).ceil() as usize;
        let sets = fd.client_label_sets();
        let total: usize = sets.iter().map(|s| s.len()).sum();
        prop_assert!(
            total <= num_clients * per_client + 10,
            "total labels {} exceeds budget", total
        );
        // Coverage: every class appears at some client.
        let mut covered = vec![false; 10];
        for s in &sets {
            for &l in s {
                covered[l] = true;
            }
        }
        prop_assert!(covered.iter().all(|&c| c), "not all labels owned: {:?}", covered);
    }
}
