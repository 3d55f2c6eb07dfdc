//! Golden bytes: every byte format the repo persists or ships is pinned
//! against images committed under `tests/golden/` — one checkpoint per
//! `MethodState` variant, one frame per `Msg` variant (both `PushBody`
//! arms), one codec message per tag plus a delta one, and the two JSON
//! shapes (`--json`'s `RunResult`, one `SavedFederation` per `ModelSpec`).
//! Encoding a value must reproduce its golden file and decoding the file
//! must reproduce the value, so a refactor of the byte layer that moves a
//! single byte fails here even when every self-consistency suite still
//! passes.

use fedclust_repro::fedclust::clustering::ClusteringOutcome;
use fedclust_repro::fedclust::SavedFederation;
use fedclust_repro::fl::checkpoint::{FedDynState, LgState, ScaffoldState};
use fedclust_repro::fl::codec::{self, CodecSpec};
use fedclust_repro::fl::{
    Checkpoint, CommMeter, FaultTelemetry, MethodState, RoundRecord, RunResult,
};
use fedclust_repro::nn::models::ModelSpec;
use fedclust_repro::proto::{decode_frame, Msg, PushBody};
use std::path::PathBuf;

/// A quiet NaN with a non-default payload: survives only bit-pattern I/O.
const NAN_PAYLOAD: u32 = 0x7fc0_beef;

fn golden(name: &str) -> PathBuf {
    golden_file(&format!("{}.bin", name))
}

fn golden_file(file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(file)
}

fn checkpoint(state: MethodState) -> Checkpoint {
    Checkpoint {
        method: "Golden".into(),
        seed: 0x0123_4567_89ab_cdef,
        next_round: 7,
        meter: CommMeter::from_bytes(1234.5, 678.25),
        telemetry: FaultTelemetry {
            faults_injected: 1,
            updates_quarantined: 2,
            retries: 3,
            downlink_failures: 4,
            uplink_losses: 5,
            deadline_misses: 6,
        },
        history: vec![
            RoundRecord {
                round: 1,
                avg_acc: 0.25,
                cum_mb: 0.5,
            },
            RoundRecord {
                round: 2,
                avg_acc: 0.5,
                cum_mb: 1.0,
            },
        ],
        state,
        residuals: vec![(0, vec![0.25, -0.5]), (3, vec![f32::MIN_POSITIVE])],
    }
}

fn checkpoints() -> Vec<(&'static str, Checkpoint)> {
    let states = [
        (
            "ckpt_global",
            MethodState::Global {
                state: vec![1.0, -2.5, f32::from_bits(NAN_PAYLOAD), -0.0],
            },
        ),
        (
            "ckpt_lg",
            MethodState::Lg(LgState {
                global_part: vec![0.5; 3],
                client_states: vec![vec![1.0, 2.0], vec![3.0, 4.0]],
            }),
        ),
        (
            "ckpt_scaffold",
            MethodState::Scaffold(ScaffoldState {
                state: vec![1.0],
                c_global: vec![0.1],
                c_clients: vec![vec![0.2], vec![0.3]],
            }),
        ),
        (
            "ckpt_feddyn",
            MethodState::FedDyn(FedDynState {
                state: vec![1.0],
                h: vec![-0.5],
                lambdas: vec![vec![0.0], vec![1e-30]],
            }),
        ),
        (
            "ckpt_ifca",
            MethodState::Ifca {
                states: vec![vec![9.0; 4]; 3],
            },
        ),
        (
            "ckpt_cfl",
            MethodState::Cfl {
                states: vec![vec![1.0], vec![2.0]],
                members: vec![vec![0, 2], vec![1]],
                last_update: vec![Some(vec![0.5]), None, Some(vec![-0.5])],
                reference_norm: Some(1.25),
            },
        ),
        (
            "ckpt_clustered",
            MethodState::Clustered {
                states: vec![vec![7.0; 2]; 2],
                labels: vec![0, 1, 0],
            },
        ),
        (
            "ckpt_fedclust",
            MethodState::FedClust {
                federation_json: "{\"labels\":[0,1],\"note\":\"θ⁰\"}".into(),
            },
        ),
    ];
    states
        .into_iter()
        .map(|(name, state)| (name, checkpoint(state)))
        .collect()
}

fn frames() -> Vec<(&'static str, Msg)> {
    vec![
        ("frame_hello", Msg::Hello { version: 1 }),
        (
            "frame_welcome",
            Msg::Welcome {
                worker_id: 3,
                argv: vec!["run".into(), "--seed".into(), "42".into()],
            },
        ),
        (
            "frame_reject",
            Msg::Reject {
                reason: "version skew".into(),
            },
        ),
        ("frame_pull_work", Msg::PullWork),
        (
            "frame_work",
            Msg::Work {
                round: 4,
                client: 17,
                epochs: 3,
                prox_mu: Some(0.01),
                upload: 1..3,
                state: vec![1.0, -2.5, 0.0],
                residual: vec![0.125],
            },
        ),
        ("frame_wait", Msg::Wait),
        (
            "frame_push_raw",
            Msg::Push {
                mode: 0,
                round: 0,
                client: 2,
                steps: 5,
                weight: 10.0,
                body: PushBody::Raw(vec![3.0, 4.0]),
            },
        ),
        (
            "frame_push_encoded",
            Msg::Push {
                mode: 0,
                round: 4,
                client: 17,
                steps: 12,
                weight: 80.0,
                body: PushBody::Encoded {
                    wire: vec![9, 8, 7],
                    residual: vec![0.5, -0.5],
                },
            },
        ),
        (
            "frame_ack",
            Msg::Ack {
                round: 4,
                client: 17,
            },
        ),
        ("frame_done", Msg::Done),
    ]
}

/// `(file, codec spec, whether both ends share the reference)`: one
/// message per wire tag (raw, q8, q4, top-k) plus a delta-flagged one.
const CODEC_CASES: [(&str, &str, bool); 5] = [
    ("codec_raw", "delta", false),
    ("codec_q8", "q8", false),
    ("codec_q4", "q4", false),
    ("codec_topk", "topk:0.25", false),
    ("codec_delta_q8", "delta+q8", true),
];

fn codec_payload() -> Vec<f32> {
    (0..11)
        .map(|i| ((i * 37 % 19) as f32) * 0.3 - 2.5)
        .collect()
}

fn codec_reference() -> Vec<f32> {
    (0..11).map(|i| i as f32 * 0.125).collect()
}

fn codec_messages() -> Vec<(&'static str, codec::Encoded, Option<Vec<f32>>)> {
    CODEC_CASES
        .iter()
        .map(|&(name, spec, shared)| {
            let reference = shared.then(codec_reference);
            let mut residual = vec![0.0625f32; 11];
            let enc = CodecSpec::parse(spec).expect("fixed spec parses").encode(
                &codec_payload(),
                reference.as_deref(),
                Some(&mut residual),
                None,
            );
            (name, enc, reference)
        })
        .collect()
}

/// Every f32 the JSON float rule treats differently: both zeros, integral
/// values, a short decimal that is long once widened, the smallest normal
/// and subnormal, the f32s either side of 1e15, and the top of the range.
fn json_f32s() -> Vec<f32> {
    let below_1e15 = 1e15f32;
    let above_1e15 = f32::from_bits(below_1e15.to_bits() + 1);
    vec![
        0.0,
        -0.0,
        1.0,
        -3.0,
        0.1,
        f32::MIN_POSITIVE,
        f32::from_bits(1),
        below_1e15,
        -above_1e15,
        3e38,
    ]
}

/// `--json`'s shape, twice: an empty run, and one with every optional
/// part filled, an escape-heavy method name and non-finite floats.
fn run_results() -> [RunResult; 2] {
    let mut per_client_acc = json_f32s();
    per_client_acc.extend([f32::NAN, f32::INFINITY, f32::NEG_INFINITY]);
    [
        RunResult {
            method: "Local".into(),
            ..RunResult::default()
        },
        RunResult {
            method: "Fed\"Clust\\ θ⁰\n\t\r\u{1}\u{1f}\u{7f}/".into(),
            final_acc: 0.1,
            per_client_acc,
            history: vec![
                RoundRecord {
                    round: 1,
                    avg_acc: 1e15,
                    cum_mb: -1e15,
                },
                RoundRecord {
                    round: 2,
                    avg_acc: 999_999_999_999_999.0,
                    cum_mb: 1e15 + 0.5,
                },
                RoundRecord {
                    round: usize::MAX,
                    avg_acc: f64::INFINITY,
                    cum_mb: -0.0,
                },
            ],
            num_clusters: Some(3),
            total_mb: f64::NAN,
            faults: FaultTelemetry {
                faults_injected: 1,
                updates_quarantined: 2,
                retries: 3,
                downlink_failures: 4,
                uplink_losses: 5,
                deadline_misses: 6,
            },
        },
    ]
}

/// What `fedclust-cli run --json` prints for each of [`run_results`].
fn run_results_json() -> String {
    run_results()
        .iter()
        .map(|r| format!("{}\n", r.to_json()))
        .collect()
}

/// `(file, snapshot, whether every float in it is finite)`: one snapshot
/// per `ModelSpec` variant. The last one carries NaN and ±∞, which the
/// writer prints as `null` and the reader refuses.
fn federations() -> Vec<(&'static str, SavedFederation, bool)> {
    let finite = json_f32s();
    let mut non_finite = finite.clone();
    non_finite.extend([f32::NAN, f32::INFINITY, f32::NEG_INFINITY]);
    let saved = |model_spec, geometry, state: &[f32], labels: Vec<usize>| SavedFederation {
        model_spec,
        geometry,
        init_state: state.to_vec(),
        labels: labels.clone(),
        cluster_states: vec![state.iter().rev().copied().collect(), Vec::new()],
        representatives: vec![vec![0.5, -0.25], state[..3].to_vec()],
        outcome: ClusteringOutcome {
            labels,
            num_clusters: 2,
            lambda: 0.1,
        },
    };
    vec![
        (
            "federation_mlp.json",
            saved(
                ModelSpec::Mlp { hidden: 32 },
                (1, 8, 8, 10),
                &finite,
                vec![0, 1, 0],
            ),
            true,
        ),
        (
            "federation_lenet5.json",
            saved(ModelSpec::LeNet5, (3, 16, 16, 10), &finite, Vec::new()),
            true,
        ),
        (
            "federation_vggmini.json",
            saved(
                ModelSpec::VggMini,
                (usize::MAX, 0, 16, 20),
                &finite[4..],
                vec![1],
            ),
            true,
        ),
        (
            "federation_resnet9.json",
            saved(ModelSpec::ResNet9, (3, 16, 16, 10), &non_finite, vec![1, 0]),
            false,
        ),
    ]
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn read(name: &str) -> Vec<u8> {
    let path = golden(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("cannot read {}: {}", path.display(), e))
}

#[test]
fn checkpoints_match_their_golden_images() {
    for (name, cp) in checkpoints() {
        let image = read(name);
        assert_eq!(cp.encode(), image, "{}: encode moved a byte", name);
        let back = Checkpoint::decode(&image).unwrap_or_else(|e| panic!("{}: {}", name, e));
        assert_eq!(back.encode(), image, "{}: decode lost a bit", name);
        match (&back.state, &cp.state) {
            // NaN != NaN: compare the one NaN-bearing state by bit pattern.
            (MethodState::Global { state: a }, MethodState::Global { state: b }) => {
                assert_eq!(bits(a), bits(b), "{}", name);
                assert!(bits(a).contains(&NAN_PAYLOAD), "NaN payload survives");
            }
            _ => assert_eq!(back, cp, "{}", name),
        }
    }
}

#[test]
fn frames_match_their_golden_images() {
    for (name, msg) in frames() {
        let image = read(name);
        assert_eq!(msg.encode(), image, "{}: encode moved a byte", name);
        let frame = decode_frame(&image).unwrap_or_else(|e| panic!("{}: {}", name, e));
        assert_eq!(Msg::decode_frame(&frame), Ok(msg), "{}", name);
    }
}

#[test]
fn codec_messages_match_their_golden_images() {
    for (name, enc, reference) in codec_messages() {
        let image = read(name);
        assert_eq!(enc.wire, image, "{}: encode moved a byte", name);
        let decoded = codec::decode(&image, reference.as_deref())
            .unwrap_or_else(|e| panic!("{}: {}", name, e));
        assert_eq!(bits(&decoded), bits(&enc.decoded), "{}", name);
    }
}

fn read_text(file: &str) -> String {
    let path = golden_file(file);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {}", path.display(), e))
}

#[test]
fn run_results_match_their_golden_json() {
    assert_eq!(
        run_results_json(),
        read_text("run_result.json"),
        "RunResult::to_json moved a byte"
    );
}

#[test]
fn federations_match_their_golden_json() {
    for (file, saved, finite) in federations() {
        let text = read_text(file);
        assert_eq!(saved.to_json(), text, "{}: to_json moved a byte", file);
        let back = SavedFederation::from_json(&text);
        if !finite {
            assert!(back.is_err(), "{}: null must not read as an f32", file);
            continue;
        }
        let back = back.unwrap_or_else(|e| panic!("{}: {}", file, e));
        assert_eq!(back.to_json(), text, "{}: from_json lost a bit", file);
        assert_eq!(back.model_spec, saved.model_spec, "{}", file);
        assert_eq!(back.geometry, saved.geometry, "{}", file);
        assert_eq!(back.labels, saved.labels, "{}", file);
        assert_eq!(back.outcome, saved.outcome, "{}", file);
        assert_eq!(bits(&back.init_state), bits(&saved.init_state), "{}", file);
        for (a, b) in [
            (&back.cluster_states, &saved.cluster_states),
            (&back.representatives, &saved.representatives),
        ] {
            let a: Vec<_> = a.iter().map(|s| bits(s)).collect();
            let b: Vec<_> = b.iter().map(|s| bits(s)).collect();
            assert_eq!(a, b, "{}", file);
        }
    }
}

/// Rewrites every golden image from the current encoders. Only for a PR
/// that changes a format on purpose (and says so): the point of the files
/// is that they were generated *before* the code they pin was touched.
#[test]
#[ignore = "rewrites tests/golden/* from the current encoders"]
fn regenerate_golden_images() {
    std::fs::write(golden_file("run_result.json"), run_results_json())
        .expect("tests/golden is writable");
    for (file, saved, _) in federations() {
        std::fs::write(golden_file(file), saved.to_json()).expect("tests/golden is writable");
    }
    let images = checkpoints()
        .into_iter()
        .map(|(name, cp)| (name, cp.encode()))
        .chain(frames().into_iter().map(|(name, m)| (name, m.encode())))
        .chain(
            codec_messages()
                .into_iter()
                .map(|(n, enc, _)| (n, enc.wire)),
        );
    for (name, image) in images {
        std::fs::write(golden(name), image).expect("tests/golden is writable");
    }
}
