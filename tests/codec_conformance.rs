//! Codec conformance battery: every compression codec honors its
//! round-trip error bound, `none` stays a byte-identical pass-through,
//! compressed runs replay bit-identically, and top-k error-feedback
//! residuals stay finite over long horizons (persisted through the
//! checkpoint codec, PR 4's durability contract).

use fedclust_repro::data::{DatasetProfile, FederatedDataset, Partition};
use fedclust_repro::fedclust::FedClust;
use fedclust_repro::fl::checkpoint::load_latest;
use fedclust_repro::fl::codec::{self, topk_k, CodecSpec};
use fedclust_repro::fl::engine::ClientUpdate;
use fedclust_repro::fl::methods::FedAvg;
use fedclust_repro::fl::{Checkpointer, FlConfig, FlMethod, Transport};
use std::path::PathBuf;

fn fd(seed: u64) -> FederatedDataset {
    FederatedDataset::build(
        DatasetProfile::FmnistLike,
        Partition::LabelSkew { fraction: 0.3 },
        &fedclust_repro::data::federated::FederatedConfig {
            num_clients: 6,
            samples_per_class: 12,
            seed,
        },
    )
}

fn cfg_with_codec(seed: u64, rounds: usize, spec: &str) -> FlConfig {
    let mut cfg = FlConfig::tiny(seed);
    cfg.rounds = rounds;
    cfg.codec = CodecSpec::parse(spec).expect("codec spec parses");
    cfg
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fedclust-codec-{}-{}", tag, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A deterministic non-trivial payload spanning positive/negative values.
fn payload(n: usize) -> Vec<f32> {
    (0..n).map(|i| ((i * 37 % 19) as f32) * 0.3 - 2.5).collect()
}

#[test]
fn quantizer_round_trip_error_is_bounded_by_half_a_step() {
    let p = payload(257);
    let lo = p.iter().cloned().fold(f32::INFINITY, f32::min) as f64;
    let hi = p.iter().cloned().fold(f32::NEG_INFINITY, f32::max) as f64;
    for (s, levels) in [("q8", 255.0f64), ("q4", 15.0f64)] {
        let spec = CodecSpec::parse(s).unwrap();
        let enc = spec.encode(&p, None, None, None);
        let dec = codec::decode(&enc.wire, None).expect("decodes");
        assert_eq!(dec, enc.decoded, "{}: decoder drifted from encoder", s);
        let step = (hi - lo) / levels;
        for (x, d) in p.iter().zip(&dec) {
            assert!(
                ((*x as f64) - (*d as f64)).abs() <= step / 2.0 + 1e-6,
                "{}: |{} - {}| exceeds scale/2 = {}",
                s,
                x,
                d,
                step / 2.0
            );
        }
    }
}

#[test]
fn delta_quantizers_bound_error_on_the_delta_stream() {
    // Delta-coded quantization derives its grid from `payload − reference`,
    // so the round-trip bound holds on the reconstruction too.
    let p = payload(100);
    let reference: Vec<f32> = (0..100).map(|i| (i as f32) * 0.01 - 0.5).collect();
    let deltas: Vec<f64> = p
        .iter()
        .zip(&reference)
        .map(|(x, r)| (*x as f64) - (*r as f64))
        .collect();
    let lo = deltas.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = deltas.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    for (s, levels) in [("delta+q8", 255.0f64), ("delta+q4", 15.0f64)] {
        let spec = CodecSpec::parse(s).unwrap();
        let enc = spec.encode(&p, Some(&reference), None, None);
        let dec = codec::decode(&enc.wire, Some(&reference)).expect("decodes");
        assert_eq!(dec, enc.decoded, "{}", s);
        let step = (hi - lo) / levels;
        for (x, d) in p.iter().zip(&dec) {
            assert!(
                ((*x as f64) - (*d as f64)).abs() <= step / 2.0 + 1e-5,
                "{}: |{} - {}| exceeds scale/2",
                s,
                x,
                d
            );
        }
    }
}

#[test]
fn topk_reconstructs_kept_coordinates_exactly() {
    let p = payload(64);
    for frac in [0.05f32, 0.25, 0.5, 1.0] {
        let spec = CodecSpec::parse(&format!("topk:{}", frac)).unwrap();
        let enc = spec.encode(&p, None, None, None);
        let kept = codec::decode_kept_indices(&enc.wire).expect("kept indices");
        assert_eq!(kept.len(), topk_k(frac, p.len()), "frac {}", frac);
        assert!(kept.windows(2).all(|w| w[0] < w[1]), "indices ascend");
        let dec = codec::decode(&enc.wire, None).expect("decodes");
        // Kept coordinates round-trip bit-exactly (no residual, no
        // reference: the accumulated value IS the payload value); unsent
        // coordinates are exactly zero.
        for (i, (x, d)) in p.iter().zip(&dec).enumerate() {
            if kept.contains(&(i as u32)) {
                assert_eq!(x.to_bits(), d.to_bits(), "kept coord {} moved", i);
            } else {
                assert_eq!(*d, 0.0, "unsent coord {} must be zero", i);
            }
        }
    }
}

#[test]
fn topk_unsent_coordinates_revert_to_the_reference_exactly() {
    let p = payload(40);
    let reference: Vec<f32> = (0..40).map(|i| (i as f32) * 0.05 - 1.0).collect();
    let spec = CodecSpec::parse("topk:0.2").unwrap();
    let enc = spec.encode(&p, Some(&reference), None, None);
    let kept = codec::decode_kept_indices(&enc.wire).expect("kept indices");
    let dec = codec::decode(&enc.wire, Some(&reference)).expect("decodes");
    for (i, (r, d)) in reference.iter().zip(&dec).enumerate() {
        if !kept.contains(&(i as u32)) {
            assert_eq!(r.to_bits(), d.to_bits(), "unsent coord {} drifted", i);
        }
    }
}

#[test]
fn none_codec_is_a_byte_identical_pass_through() {
    // The identity codec must not touch the payload, draw randomness, or
    // change the legacy 4-bytes-per-scalar accounting.
    let mut cfg = FlConfig::tiny(0);
    cfg.codec = CodecSpec::none();
    let mut t = Transport::new(&cfg);
    let original = payload(50);
    let reference = vec![0.25f32; 50];
    let one = ClientUpdate {
        client: 3,
        state: original.clone(),
        weight: 1.0,
        steps: 1,
    };
    let up = t
        .receive(0, vec![one], Some(&reference), None)
        .remove(0)
        .state;
    let bits: Vec<u32> = up.iter().map(|v| v.to_bits()).collect();
    let orig_bits: Vec<u32> = original.iter().map(|v| v.to_bits()).collect();
    assert_eq!(bits, orig_bits, "payload bytes changed under codec none");
    assert_eq!(t.meter().total_mb(), 50.0 * 4.0 / 1.0e6);
    assert!(t.codec_residuals().is_empty());

    // The batch path keeps updates untouched and in order too.
    let updates: Vec<ClientUpdate> = (0..3)
        .map(|c| ClientUpdate {
            client: c,
            state: payload(50),
            weight: 1.0,
            steps: 1,
        })
        .collect();
    let kept = t.receive(1, updates.clone(), Some(&reference), None);
    assert_eq!(kept.len(), 3);
    for (a, b) in kept.iter().zip(&updates) {
        assert_eq!(a.client, b.client);
        let ab: Vec<u32> = a.state.iter().map(|v| v.to_bits()).collect();
        let bb: Vec<u32> = b.state.iter().map(|v| v.to_bits()).collect();
        assert_eq!(ab, bb);
    }
}

#[test]
fn compressed_runs_replay_bit_identically() {
    let fd = fd(21);
    for spec in ["q8", "q4", "topk:0.1", "delta+q8"] {
        let cfg = cfg_with_codec(21, 3, spec);
        let a = FedAvg.run(&fd, &cfg);
        let b = FedAvg.run(&fd, &cfg);
        assert_eq!(a, b, "FedAvg replay diverged under codec {}", spec);
        let c = FedClust::default().run(&fd, &cfg);
        let d = FedClust::default().run(&fd, &cfg);
        assert_eq!(c, d, "FedClust replay diverged under codec {}", spec);
    }
}

#[test]
fn stochastic_rounding_replays_bit_identically_too() {
    let fd = fd(23);
    let cfg = cfg_with_codec(23, 3, "delta+q8+sr");
    let a = FedAvg.run(&fd, &cfg);
    let b = FedAvg.run(&fd, &cfg);
    assert_eq!(a, b, "q8+sr replay diverged");
}

#[test]
fn error_feedback_residuals_stay_finite_over_twenty_rounds() {
    // A long top-k horizon: the residual accumulator must neither blow up
    // nor go non-finite. The final checkpoint is the witness — it persists
    // the transport's exact residual state.
    let fd = fd(25);
    let cfg = cfg_with_codec(25, 20, "topk:0.1");
    let dir = tmpdir("ef-horizon");
    let mut ckpt = Checkpointer::new(&dir).keep(2);
    let result = FedAvg
        .run_hosted(&fd, &cfg, &mut ckpt, None)
        .expect("compressed run succeeds");
    assert!(result.final_acc.is_finite());

    let (cp, _) = load_latest(&dir).expect("final checkpoint loads");
    let cp = cp.expect("a checkpoint generation exists");
    assert_eq!(cp.next_round, 20);
    assert!(
        !cp.residuals.is_empty(),
        "top-k must have accumulated residual state"
    );
    for (client, res) in &cp.residuals {
        let norm: f64 = res.iter().map(|&v| (v as f64) * (v as f64)).sum::<f64>();
        assert!(
            norm.is_finite(),
            "client {} residual norm went non-finite",
            client
        );
        assert!(res.iter().all(|v| v.is_finite()), "client {}", client);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
