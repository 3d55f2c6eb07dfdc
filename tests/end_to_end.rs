//! End-to-end integration: every method runs on the same federation and
//! produces sane, deterministic telemetry; the paper's headline ordering
//! (clustered > global under label skew) holds on a small instance.

use fedclust_repro::data::{DatasetProfile, FederatedDataset, Partition};
use fedclust_repro::fedclust::FedClust;
use fedclust_repro::fl::methods::{baselines, FlMethod};
use fedclust_repro::fl::FlConfig;

fn small_fd(seed: u64) -> FederatedDataset {
    FederatedDataset::build(
        DatasetProfile::FmnistLike,
        Partition::LabelSkew { fraction: 0.2 },
        &fedclust_repro::data::federated::FederatedConfig {
            num_clients: 8,
            samples_per_class: 40,
            train_fraction: 0.8,
            seed,
        },
    )
}

#[test]
fn all_ten_methods_run_and_report_sane_results() {
    let fd = small_fd(0);
    let mut cfg = FlConfig::tiny(0);
    cfg.rounds = 3;
    let mut methods = baselines();
    methods.push(Box::new(FedClust::default()));
    assert_eq!(methods.len(), 10);
    for method in &methods {
        let r = method.run(&fd, &cfg);
        assert_eq!(r.method, method.name());
        assert!(
            r.final_acc.is_finite() && (0.0..=1.0).contains(&r.final_acc),
            "{}: acc {}",
            r.method,
            r.final_acc
        );
        assert_eq!(r.per_client_acc.len(), fd.num_clients(), "{}", r.method);
        assert!(!r.history.is_empty(), "{}: empty history", r.method);
        for w in r.history.windows(2) {
            assert!(
                w[0].round < w[1].round,
                "{}: rounds not ascending",
                r.method
            );
            assert!(
                w[0].cum_mb <= w[1].cum_mb,
                "{}: comm not monotone",
                r.method
            );
        }
        if r.method == "Local" {
            assert_eq!(r.total_mb, 0.0, "Local must not communicate");
        } else {
            assert!(r.total_mb > 0.0, "{} must report communication", r.method);
        }
    }
}

/// 200 clients over 20 samples: most clients have no training data, and
/// Eq. 2 weights such a client's update by 0. That is a valid update —
/// received, billed, contributing nothing — so a round (or a cluster, or
/// one of IFCA's k models) whose every sampled member is empty carries its
/// model forward instead of dividing by a zero total weight.
#[test]
fn empty_clients_contribute_nothing_and_break_no_method() {
    let fd = FederatedDataset::build(
        DatasetProfile::FmnistLike,
        Partition::LabelSkew { fraction: 0.2 },
        &fedclust_repro::data::federated::FederatedConfig {
            num_clients: 200,
            samples_per_class: 2,
            train_fraction: 0.8,
            seed: 3,
        },
    );
    let empty = fd.clients.iter().filter(|c| c.train_samples() == 0);
    assert!(empty.count() > 100, "the shape must have empty clients");
    let mut cfg = FlConfig::tiny(3);
    cfg.rounds = 2;
    cfg.local_epochs = 1;
    cfg.sample_rate = 0.25;
    let mut methods = baselines();
    methods.push(Box::new(FedClust::default()));
    for method in &methods {
        let r = method.run(&fd, &cfg);
        assert!(r.final_acc.is_finite(), "{}: {}", r.method, r.final_acc);
        assert_eq!(r.per_client_acc.len(), fd.num_clients(), "{}", r.method);
    }
}

#[test]
fn runs_are_bitwise_deterministic() {
    let fd = small_fd(1);
    let cfg = FlConfig::tiny(1);
    let method = FedClust::default();
    let a = method.run(&fd, &cfg);
    let b = method.run(&fd, &cfg);
    assert_eq!(a.final_acc, b.final_acc);
    assert_eq!(a.per_client_acc, b.per_client_acc);
    assert_eq!(a.num_clusters, b.num_clusters);
    let history_a: Vec<(usize, f64)> = a.history.iter().map(|r| (r.round, r.avg_acc)).collect();
    let history_b: Vec<(usize, f64)> = b.history.iter().map(|r| (r.round, r.avg_acc)).collect();
    assert_eq!(history_a, history_b);
}

#[test]
fn different_seeds_give_different_runs() {
    let cfg0 = FlConfig::tiny(100);
    let mut cfg1 = cfg0;
    cfg1.seed = 101;
    let fd0 = small_fd(100);
    let a = FedClust::default().run(&fd0, &cfg0);
    let b = FedClust::default().run(&fd0, &cfg1);
    assert_ne!(a.per_client_acc, b.per_client_acc);
}

#[test]
fn clustered_beats_global_under_strong_skew() {
    // The paper's central claim in miniature: with two clean client groups
    // a clustered method must beat a single global model.
    let groups: Vec<Vec<usize>> = (0..8)
        .map(|c| {
            if c < 4 {
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
            num_clients: 8,
            samples_per_class: 60,
            train_fraction: 0.8,
            seed: 2,
        },
    );
    let mut cfg = FlConfig::tiny(2);
    cfg.rounds = 6;
    cfg.sample_rate = 0.5;
    let fedclust = FedClust::default().run(&fd, &cfg);
    let fedavg = fedclust_repro::fl::methods::FedAvg.run(&fd, &cfg);
    assert!(
        fedclust.final_acc > fedavg.final_acc,
        "FedClust {:.3} must beat FedAvg {:.3} on two-group skew",
        fedclust.final_acc,
        fedavg.final_acc
    );
}
