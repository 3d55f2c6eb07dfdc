//! End-to-end resilience: federations finish — finitely and
//! deterministically — under lossy uplinks, stragglers, and corrupted
//! updates, and the fault-free plan changes nothing.

use fedclust_repro::data::{DatasetProfile, FederatedDataset, Partition};
use fedclust_repro::fedclust::FedClust;
use fedclust_repro::fl::methods::FedAvg;
use fedclust_repro::fl::{run_federation, FaultPlan, FlConfig, FlMethod, NoCheckpoints};

fn fd(seed: u64) -> FederatedDataset {
    FederatedDataset::build(
        DatasetProfile::FmnistLike,
        Partition::LabelSkew { fraction: 0.3 },
        &fedclust_repro::data::federated::FederatedConfig {
            num_clients: 8,
            samples_per_class: 20,
            seed,
        },
    )
}

/// The ISSUE scenario: 30 % uplink loss, stragglers against a tight
/// deadline, and NaN/Inf/stale corruption, all at once.
fn stormy(seed: u64) -> FlConfig {
    let mut cfg = FlConfig::tiny(seed);
    cfg.rounds = 4;
    cfg.sample_rate = 0.75;
    cfg.faults = FaultPlan {
        uplink_loss: 0.3,
        straggler_rate: 0.4,
        straggler_mean_delay: 2.0,
        round_deadline: 1.0,
        corruption_rate: 0.4,
        downlink_loss: 0.2,
        max_downlink_retries: 1,
    };
    cfg
}

#[test]
fn fedavg_survives_the_storm_deterministically() {
    let fd = fd(0);
    let cfg = stormy(0);
    let a = FedAvg.run(&fd, &cfg);
    let b = FedAvg.run(&fd, &cfg);
    assert!(a.final_acc.is_finite(), "acc {}", a.final_acc);
    assert!(!a.history.is_empty());
    assert!(a.history.iter().all(|r| r.avg_acc.is_finite()));
    assert!(
        a.faults.faults_injected > 0,
        "the storm must actually inject faults: {:?}",
        a.faults
    );
    assert!(
        a.faults.updates_quarantined > 0,
        "NaN/Inf corruption must trip the quarantine: {:?}",
        a.faults
    );
    // Bit-identical replay: accuracies, history, comm bytes, telemetry.
    assert_eq!(a.per_client_acc, b.per_client_acc);
    assert_eq!(a.final_acc, b.final_acc);
    assert_eq!(a.history, b.history);
    assert_eq!(a.total_mb, b.total_mb);
    assert_eq!(a.faults, b.faults);
}

#[test]
fn fedclust_survives_the_storm_deterministically() {
    let fd = fd(1);
    let cfg = stormy(1);
    let method = FedClust::default();
    let a = method.run(&fd, &cfg);
    let b = method.run(&fd, &cfg);
    assert!(a.final_acc.is_finite(), "acc {}", a.final_acc);
    assert!(!a.history.is_empty());
    assert!(a.history.iter().all(|r| r.avg_acc.is_finite()));
    assert!(a.num_clusters.unwrap() >= 1);
    assert!(a.faults.faults_injected > 0, "{:?}", a.faults);
    assert_eq!(a.per_client_acc, b.per_client_acc);
    assert_eq!(a.history, b.history);
    assert_eq!(a.total_mb, b.total_mb);
    assert_eq!(a.faults, b.faults);
}

#[test]
fn fedclust_clusters_even_when_round0_uploads_are_lost() {
    // A third of the warm-up partial uploads never arrive; the one-shot
    // clustering must still produce a full client → cluster assignment.
    let fd = fd(2);
    let mut cfg = FlConfig::tiny(2);
    cfg.rounds = 2;
    cfg.faults = FaultPlan {
        uplink_loss: 0.35,
        ..FaultPlan::none()
    };
    let Ok((result, federation)) =
        run_federation(&FedClust::default(), &fd, &cfg, NoCheckpoints, None);
    assert_eq!(federation.saved.labels.len(), fd.num_clients());
    let k = result.num_clusters.unwrap();
    assert!(k >= 1);
    assert!(federation.saved.labels.iter().all(|&l| l < k));
    assert!(result.final_acc.is_finite());
    assert!(result.faults.uplink_losses > 0, "{:?}", result.faults);
}

#[test]
fn none_plan_matches_the_default_config_exactly() {
    let fd = fd(3);
    let mut with_plan = FlConfig::tiny(3);
    with_plan.rounds = 3;
    with_plan.faults = FaultPlan::none();
    let mut baseline = FlConfig::tiny(3);
    baseline.rounds = 3;

    for (a, b) in [
        (FedAvg.run(&fd, &with_plan), FedAvg.run(&fd, &baseline)),
        (
            FedClust::default().run(&fd, &with_plan),
            FedClust::default().run(&fd, &baseline),
        ),
    ] {
        assert_eq!(a.per_client_acc, b.per_client_acc);
        assert_eq!(a.final_acc, b.final_acc);
        assert_eq!(a.history, b.history);
        assert_eq!(a.total_mb, b.total_mb);
        assert_eq!(a.faults, Default::default());
    }
}
