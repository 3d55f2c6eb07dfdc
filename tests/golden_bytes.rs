//! Golden bytes: every byte format the repo persists or ships is pinned
//! against images committed under `tests/golden/` — one checkpoint per
//! `MethodState` variant, one frame per `Msg` variant (both `PushBody`
//! arms), one codec message per tag plus a delta one. Encoding a value must
//! reproduce its golden file and decoding the file must reproduce the
//! value, so a refactor of the byte layer that moves a single byte fails
//! here even when every self-consistency suite still passes.

use fedclust_repro::fl::checkpoint::{FedDynState, LgState, ScaffoldState};
use fedclust_repro::fl::codec::{self, CodecSpec};
use fedclust_repro::fl::{Checkpoint, CommMeter, FaultTelemetry, MethodState, RoundRecord};
use fedclust_repro::proto::{decode_frame, Msg, PushBody, MODE_TRAIN, MODE_WARMUP};
use std::path::PathBuf;

/// A quiet NaN with a non-default payload: survives only bit-pattern I/O.
const NAN_PAYLOAD: u32 = 0x7fc0_beef;

fn golden(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{}.bin", name))
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
                mode: MODE_TRAIN,
                round: 4,
                client: 17,
                epochs: 3,
                prox_mu: Some(0.01),
                state: vec![1.0, -2.5, 0.0],
                residual: vec![0.125],
            },
        ),
        ("frame_wait", Msg::Wait { millis: 50 }),
        ("frame_busy", Msg::Busy { millis: 120 }),
        (
            "frame_push_raw",
            Msg::Push {
                mode: MODE_WARMUP,
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
                mode: MODE_TRAIN,
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

/// Rewrites every golden image from the current encoders. Only for a PR
/// that changes a format on purpose (and says so): the point of the files
/// is that they were generated *before* the code they pin was touched.
#[test]
#[ignore = "rewrites tests/golden/*.bin from the current encoders"]
fn regenerate_golden_images() {
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
