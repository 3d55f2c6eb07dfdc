//! Property-based tests of the FL engine's deterministic machinery and the
//! fault-injection layer.

use fedclust_fl::codec::{self, CodecSpec, WIRE_CHECKSUM_BYTES, WIRE_HEADER_BYTES};
use fedclust_fl::engine::{
    init_model, sample_clients, train_sampled, weighted_average, ClientUpdate,
};
use fedclust_fl::methods::FedAvg;
use fedclust_fl::metrics::{RoundRecord, RunResult};
use fedclust_fl::{run_federation, FaultPlan, FlConfig, NoCheckpoints, Transport};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Client sampling respects the `max(R·N, 1)` size rule, stays within
    /// bounds, has no duplicates, and is deterministic per (seed, round).
    #[test]
    fn sampling_contract(
        num_clients in 1usize..200,
        rate_pct in 1u32..100,
        seed in 0u64..1000,
        round in 0usize..50,
    ) {
        let mut cfg = FlConfig::tiny(seed);
        cfg.sample_rate = rate_pct as f32 / 100.0;
        let sampled = sample_clients(num_clients, &cfg, round);
        let expected = ((cfg.sample_rate * num_clients as f32).round() as usize)
            .clamp(1, num_clients);
        prop_assert_eq!(sampled.len(), expected);
        let mut dedup = sampled.clone();
        dedup.dedup();
        prop_assert_eq!(&dedup, &sampled, "sorted output must have no duplicates");
        prop_assert!(sampled.iter().all(|&c| c < num_clients));
        prop_assert_eq!(sample_clients(num_clients, &cfg, round), sampled);
    }

    /// Over many rounds, sampling covers every client (no starvation) for
    /// moderate rates.
    #[test]
    fn sampling_eventually_covers_everyone(seed in 0u64..200) {
        let mut cfg = FlConfig::tiny(seed);
        cfg.sample_rate = 0.3;
        let n = 12;
        let mut seen = vec![false; n];
        for round in 0..60 {
            for c in sample_clients(n, &cfg, round) {
                seen[c] = true;
            }
        }
        prop_assert!(seen.iter().all(|&s| s), "unseen clients: {:?}", seen);
    }

    /// Weighted averaging is invariant to permuting its inputs.
    #[test]
    fn weighted_average_permutation_invariant(
        states in proptest::collection::vec(
            (proptest::collection::vec(-5.0f32..5.0, 4), 0.1f32..5.0), 2..6),
    ) {
        let fwd: Vec<(&[f32], f32)> = states.iter().map(|(s, w)| (s.as_slice(), *w)).collect();
        let rev: Vec<(&[f32], f32)> = states.iter().rev().map(|(s, w)| (s.as_slice(), *w)).collect();
        let a = weighted_average(&fwd);
        let b = weighted_average(&rev);
        for (x, y) in a.iter().zip(&b) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    /// rounds_to_target and mb_to_target agree with a manual scan of the
    /// history for any monotone-mb trajectory.
    #[test]
    fn targets_match_manual_scan(
        accs in proptest::collection::vec(0.0f64..1.0, 1..12),
        target in 0.0f64..1.0,
    ) {
        let history: Vec<RoundRecord> = accs
            .iter()
            .enumerate()
            .map(|(i, &a)| RoundRecord { round: i + 1, avg_acc: a, cum_mb: (i + 1) as f64 })
            .collect();
        let run = RunResult {
            method: "m".into(),
            final_acc: *accs.last().unwrap(),
            per_client_acc: vec![],
            history: history.clone(),
            num_clusters: None,
            total_mb: history.last().unwrap().cum_mb,
            faults: Default::default(),
        };
        let manual = history.iter().find(|r| r.avg_acc >= target);
        prop_assert_eq!(run.rounds_to_target(target), manual.map(|r| r.round));
        prop_assert_eq!(run.mb_to_target(target), manual.map(|r| r.cum_mb));
    }
}

/// Arbitrary — possibly out-of-range — fault plans, passed through
/// [`FaultPlan::sanitized`] exactly as `Transport::new` would.
fn plan_strategy() -> impl Strategy<Value = FaultPlan> {
    (
        (0.0f32..1.5, 0usize..5, 0.0f32..1.5),
        (0.0f32..1.0, 0.0f32..3.0, 0.0f32..2.0),
        0.0f32..1.0,
    )
        .prop_map(|((dl, retries, ul), (sr, delay, deadline), cr)| {
            FaultPlan {
                downlink_loss: dl,
                max_downlink_retries: retries,
                uplink_loss: ul,
                straggler_rate: sr,
                straggler_mean_delay: delay,
                round_deadline: deadline,
                corruption_rate: cr,
            }
            .sanitized()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Liveness: no fault plan — even total downlink loss — may strand a
    /// round with zero reachable clients.
    #[test]
    fn faulty_broadcast_always_reaches_someone(
        plan in plan_strategy(),
        seed in 0u64..500,
        round in 0usize..20,
        n in 1usize..9,
    ) {
        let mut cfg = FlConfig::tiny(seed);
        cfg.faults = plan;
        let mut t = Transport::new(&cfg);
        let clients: Vec<usize> = (0..n).collect();
        let reached = t.broadcast(round, &clients, 16);
        prop_assert!(!reached.is_empty(), "broadcast stranded the round: {:?}", plan);
        prop_assert!(reached.iter().all(|c| clients.contains(c)));
    }

    /// The quarantine screen removes exactly the non-finite updates and
    /// counts them, leaving finite updates untouched and in order.
    #[test]
    fn quarantine_removes_exactly_the_nonfinite_updates(
        mask in proptest::collection::vec(0u32..3, 1..8),
        seed in 0u64..200,
    ) {
        // Active plan with clean uplinks: only the screen filters anything.
        let mut cfg = FlConfig::tiny(seed);
        cfg.faults = FaultPlan { downlink_loss: 0.5, ..FaultPlan::none() };
        let mut t = Transport::new(&cfg);
        let updates: Vec<ClientUpdate> = mask
            .iter()
            .enumerate()
            .map(|(i, &m)| {
                let mut state = vec![0.25f32; 6];
                if m == 1 {
                    state[i % 6] = f32::NAN;
                } else if m == 2 {
                    state[i % 6] = f32::INFINITY;
                }
                ClientUpdate { client: i, state, weight: 1.0, steps: 1 }
            })
            .collect();
        let kept = t.receive(0, updates, None, None);
        let expect: Vec<usize> = mask
            .iter()
            .enumerate()
            .filter(|&(_, &m)| m == 0)
            .map(|(i, _)| i)
            .collect();
        let got: Vec<usize> = kept.iter().map(|u| u.client).collect();
        prop_assert_eq!(got, expect);
        prop_assert!(kept.iter().all(|u| u.state == vec![0.25f32; 6]));
        let bad = mask.iter().filter(|&&m| m != 0).count();
        prop_assert_eq!(t.telemetry().updates_quarantined, bad);
    }
}

proptest! {
    // Each case trains a small federation twice; keep the count low.
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// `FaultPlan::none()` is a byte-identical pass-through: the
    /// transport-mediated round loop (the driver's) reproduces the raw
    /// `train_sampled` + `weighted_average` state vectors exactly.
    #[test]
    fn none_plan_reproduces_fault_free_state_vectors(seed in 0u64..100) {
        let fd = fedclust_data::FederatedDataset::build(
            fedclust_data::DatasetProfile::FmnistLike,
            fedclust_data::Partition::LabelSkew { fraction: 0.5 },
            &fedclust_data::federated::FederatedConfig {
                num_clients: 4,
                samples_per_class: 10,
                seed,
            },
        );
        let mut cfg = FlConfig::tiny(seed);
        cfg.rounds = 2;
        let template = init_model(&fd, &cfg);

        let mut manual = template.state_vec();
        for round in 0..cfg.rounds {
            let sampled = sample_clients(fd.num_clients(), &cfg, round);
            let updates = train_sampled(&fd, &cfg, &template, &manual, &sampled, round, None);
            let items: Vec<(&[f32], f32)> =
                updates.iter().map(|u| (u.state.as_slice(), u.weight)).collect();
            manual = weighted_average(&items);
        }

        // cfg.faults is FaultPlan::none()
        let Ok((result, transported)) = run_federation(&FedAvg, &fd, &cfg, NoCheckpoints, None);

        prop_assert_eq!(manual, transported);
        prop_assert_eq!(result.faults, fedclust_fl::FaultTelemetry::default());
    }
}

/// Every deterministic non-identity codec the CLI grammar can produce,
/// drawn by index so case selection stays reproducible.
fn any_codec() -> impl Strategy<Value = CodecSpec> {
    (0usize..8).prop_map(|i| {
        let specs = [
            "q8",
            "q4",
            "topk:0.3",
            "topk:0.01",
            "topk:1.0",
            "delta",
            "delta+q8",
            "delta+q4",
        ];
        CodecSpec::parse(specs[i]).expect("fixed specs parse")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Encoding is total over arbitrary f32 bit patterns — NaNs,
    /// infinities, subnormals included — and decoding the produced wire
    /// reproduces the encoder's own server-side view bit for bit.
    #[test]
    fn codec_round_trip_is_total_on_arbitrary_bit_patterns(
        bits in proptest::collection::vec(0u32..=u32::MAX, 0..32),
        spec in any_codec(),
        with_reference in 0u32..2,
    ) {
        let payload: Vec<f32> = bits.iter().map(|&b| f32::from_bits(b)).collect();
        let reference = (with_reference == 1)
            .then(|| payload.iter().map(|v| v * 0.5).collect::<Vec<f32>>());
        let r = reference.as_deref();
        let mut residual = vec![0.0f32; payload.len()];
        let enc = spec.encode(&payload, r, Some(&mut residual), None);
        prop_assert_eq!(enc.wire.len(), spec.wire_len(payload.len()));
        prop_assert_eq!(enc.decoded.len(), payload.len());
        prop_assert_eq!(residual.len(), payload.len());
        let dec = codec::decode(&enc.wire, r).expect("the encoder's wire must decode");
        prop_assert_eq!(dec.len(), enc.decoded.len());
        for (a, b) in dec.iter().zip(&enc.decoded) {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "decode drifted from the encoder");
        }
    }

    /// Quantize ∘ dequantize ∘ quantize = quantize: re-encoding a decoded
    /// q8/q4 tensor reproduces the exact same code stream, and the decoded
    /// values are a fixed point up to the one-ulp re-rounding of the
    /// stored f32 grid parameters.
    #[test]
    fn quantization_is_idempotent_on_the_code_stream(
        mut payload in proptest::collection::vec(-8.0f32..8.0, 0..40),
        which in 0u32..4,
    ) {
        // Pin the value range so the re-derived grid is well-conditioned:
        // with the span fixed at [-8, 8] the scale stays far enough from
        // zero that re-rounding the stored parameters cannot move a code.
        payload.push(-8.0);
        payload.push(8.0);
        let spec = CodecSpec::parse(["q8", "q4", "delta+q8", "delta+q4"][which as usize])
            .expect("fixed specs parse");
        let reference = vec![0.0f32; payload.len()];
        let r = spec.delta.then_some(reference.as_slice());
        let once = spec.encode(&payload, r, None, None);
        let twice = spec.encode(&once.decoded, r, None, None);
        let codes = |w: &[u8]| w[WIRE_HEADER_BYTES..w.len() - WIRE_CHECKSUM_BYTES].to_vec();
        prop_assert_eq!(codes(&once.wire), codes(&twice.wire), "code stream moved");
        for (a, b) in once.decoded.iter().zip(&twice.decoded) {
            prop_assert!((a - b).abs() <= 1e-3, "fixed point drifted: {} vs {}", a, b);
        }
    }
}
