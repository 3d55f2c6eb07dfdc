//! Exact communication accounting: each protocol's reported bytes must
//! match its analytic cost model. Tables 4 and 5 rest on these numbers.

use fedclust_repro::data::{DatasetProfile, FederatedDataset, Partition};
use fedclust_repro::fedclust::proximity::WeightSelection;
use fedclust_repro::fedclust::FedClust;
use fedclust_repro::fl::engine::init_model;
use fedclust_repro::fl::methods::{FedAvg, Ifca, LgFedAvg, Pacfl};
use fedclust_repro::fl::{FaultPlan, FlConfig, FlMethod};

fn fd(seed: u64, clients: usize) -> FederatedDataset {
    FederatedDataset::build(
        DatasetProfile::FmnistLike,
        Partition::LabelSkew { fraction: 0.3 },
        &fedclust_repro::data::federated::FederatedConfig {
            num_clients: clients,
            samples_per_class: 30,
            seed,
        },
    )
}

const BYTES: f64 = 4.0;
const MB: f64 = 1.0e6;

#[test]
fn fedavg_cost_is_rounds_times_clients_times_two_states() {
    let fd = fd(0, 8);
    let mut cfg = FlConfig::tiny(0);
    cfg.rounds = 4;
    cfg.sample_rate = 0.5; // 4 clients per round
    let state = init_model(&fd, &cfg).state_len() as f64;
    let r = FedAvg.run(&fd, &cfg);
    let expected = 4.0 * 4.0 * 2.0 * state * BYTES / MB;
    assert!(
        (r.total_mb - expected).abs() < 1e-9,
        "reported {} expected {}",
        r.total_mb,
        expected
    );
}

#[test]
fn ifca_downlink_scales_with_k() {
    let fd = fd(1, 8);
    let mut cfg = FlConfig::tiny(1);
    cfg.rounds = 3;
    cfg.sample_rate = 0.5;
    let state = init_model(&fd, &cfg).state_len() as f64;
    for k in [2usize, 4] {
        let r = Ifca { k }.run(&fd, &cfg);
        let expected = 3.0 * 4.0 * (k as f64 + 1.0) * state * BYTES / MB;
        assert!(
            (r.total_mb - expected).abs() < 1e-9,
            "k={}: reported {} expected {}",
            k,
            r.total_mb,
            expected
        );
    }
}

#[test]
fn lg_cost_counts_only_global_blocks() {
    let fd = fd(2, 8);
    let mut cfg = FlConfig::tiny(2);
    cfg.rounds = 3;
    cfg.sample_rate = 0.5;
    let template = init_model(&fd, &cfg);
    let blocks = template.param_blocks();
    let split = blocks[blocks.len() - 2].offset;
    let comm_len = (template.num_params() - split) + template.extra_state_len();
    let r = LgFedAvg.run(&fd, &cfg);
    let expected = 3.0 * 4.0 * 2.0 * comm_len as f64 * BYTES / MB;
    assert!(
        (r.total_mb - expected).abs() < 1e-9,
        "reported {} expected {}",
        r.total_mb,
        expected
    );
}

#[test]
fn fedclust_round0_costs_broadcast_plus_partial_uploads() {
    let fd = fd(3, 8);
    let mut cfg = FlConfig::tiny(3);
    cfg.rounds = 2;
    cfg.sample_rate = 0.5;
    let template = init_model(&fd, &cfg);
    let state = template.state_len() as f64;
    let partial = WeightSelection::FinalLayer.upload_len(&template) as f64;
    let r = FedClust::default().run(&fd, &cfg);
    // Round 0: 8 × (state down + partial up). Rounds 1..2: 4 × 2 × state.
    let expected = (8.0 * (state + partial) + 2.0 * 4.0 * 2.0 * state) * BYTES / MB;
    assert!(
        (r.total_mb - expected).abs() < 1e-9,
        "reported {} expected {}",
        r.total_mb,
        expected
    );
}

#[test]
fn pacfl_upfront_cost_is_p_vectors_per_client() {
    let fd = fd(4, 6);
    let mut cfg = FlConfig::tiny(4);
    cfg.rounds = 0; // isolate the pre-federation cost
    let feature_dim = fd.channels * fd.height * fd.width;
    let r = Pacfl.run(&fd, &cfg);
    let expected = 6.0 * 3.0 * feature_dim as f64 * BYTES / MB;
    assert!(
        (r.total_mb - expected).abs() < 1e-9,
        "reported {} expected {}",
        r.total_mb,
        expected
    );
}

#[test]
fn failed_downlink_attempts_are_all_charged() {
    // Total downlink loss with r retries: every sampled client is attempted
    // 1 + r times (all charged); liveness then resurrects exactly one
    // client per round, which trains and uploads one state vector.
    let fd = fd(6, 8);
    let mut cfg = FlConfig::tiny(6);
    cfg.rounds = 3;
    cfg.sample_rate = 0.5; // 4 clients per round
    let retries = 2usize;
    cfg.faults = FaultPlan {
        downlink_loss: 1.0,
        max_downlink_retries: retries,
        ..FaultPlan::none()
    };
    let state = init_model(&fd, &cfg).state_len() as f64;
    let r = FedAvg.run(&fd, &cfg);
    let down = 3.0 * 4.0 * (1 + retries) as f64 * state;
    let up = 3.0 * 1.0 * state;
    let expected = (down + up) * BYTES / MB;
    assert!(
        (r.total_mb - expected).abs() < 1e-9,
        "reported {} expected {}",
        r.total_mb,
        expected
    );
    assert_eq!(r.faults.retries, 3 * 4 * retries);
    // 3 of the 4 clients stay unreachable each round (one is resurrected).
    assert_eq!(r.faults.downlink_failures, 3 * 3);
}

#[test]
fn lost_uplinks_cost_the_same_as_delivered_ones() {
    // Total uplink loss: the client transmitted either way, so the bill is
    // identical to the fault-free run — but nothing aggregates and the
    // model never moves.
    let fd = fd(7, 8);
    let mut cfg = FlConfig::tiny(7);
    cfg.rounds = 3;
    cfg.sample_rate = 0.5;
    let clean = FedAvg.run(&fd, &cfg);
    cfg.faults = FaultPlan {
        uplink_loss: 1.0,
        ..FaultPlan::none()
    };
    let lossy = FedAvg.run(&fd, &cfg);
    assert!(
        (lossy.total_mb - clean.total_mb).abs() < 1e-9,
        "lossy {} clean {}",
        lossy.total_mb,
        clean.total_mb
    );
    assert_eq!(lossy.faults.uplink_losses, 3 * 4);
    assert_eq!(lossy.faults.faults_injected, 3 * 4);
}

#[test]
fn fedclust_partial_upload_is_cheaper_than_one_fedavg_round() {
    // The one-shot clustering round must cost less than a full FedAvg
    // round over the same client set — the efficiency claim of §4.1.
    let fd = fd(5, 8);
    let cfg = FlConfig::tiny(5);
    let template = init_model(&fd, &cfg);
    let partial = WeightSelection::FinalLayer.upload_len(&template);
    assert!(partial * 4 < template.state_len());
}

#[test]
fn compressed_fedavg_wire_bytes_match_the_codec_layout() {
    // With a codec active the uplink is charged at encoded wire bytes
    // (header + payload + checksum), while the broadcast stays raw f32s.
    // Both sides are exactly predictable from the state length.
    let fd = fd(8, 8);
    for spec in ["q8", "q4", "topk:0.1", "delta+q8"] {
        let mut cfg = FlConfig::tiny(8);
        cfg.rounds = 4;
        cfg.sample_rate = 0.5; // 4 clients per round
        cfg.codec = fedclust_repro::fl::CodecSpec::parse(spec).expect("codec spec parses");
        let state = init_model(&fd, &cfg).state_len();
        let r = FedAvg.run(&fd, &cfg);
        let down = 4.0 * 4.0 * state as f64 * BYTES;
        let up = 4.0 * 4.0 * cfg.codec.wire_len(state) as f64;
        let expected = (down + up) / MB;
        assert!(
            (r.total_mb - expected).abs() < 1e-9,
            "{}: reported {} expected {}",
            spec,
            r.total_mb,
            expected
        );
    }
}

#[test]
fn compression_strictly_shrinks_the_bill() {
    // Every non-identity codec must beat raw f32 uploads on a real
    // grid-shaped run — for FedAvg and for FedClust's two-phase protocol.
    let fd = fd(9, 8);
    let mut base = FlConfig::tiny(9);
    base.rounds = 3;
    base.sample_rate = 0.5;
    let exact_avg = FedAvg.run(&fd, &base);
    let exact_clust = FedClust::default().run(&fd, &base);
    for spec in ["q8", "q4", "topk:0.1", "delta+q8"] {
        let mut cfg = base;
        cfg.codec = fedclust_repro::fl::CodecSpec::parse(spec).expect("codec spec parses");
        let avg = FedAvg.run(&fd, &cfg);
        assert!(
            avg.total_mb < exact_avg.total_mb,
            "{}: FedAvg compressed {} !< exact {}",
            spec,
            avg.total_mb,
            exact_avg.total_mb
        );
        let clust = FedClust::default().run(&fd, &cfg);
        assert!(
            clust.total_mb < exact_clust.total_mb,
            "{}: FedClust compressed {} !< exact {}",
            spec,
            clust.total_mb,
            exact_clust.total_mb
        );
    }
}
