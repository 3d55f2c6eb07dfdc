//! What only the one federation driver makes testable.
//!
//! * The trainer is a value the host passes down, so a "networked" and an
//!   in-process federation can run side by side in one process. A stand-in
//!   for the worker fleet — the worker's `train_unit` and the server's
//!   `settle`, without sockets — trains rounds and FedClust's warm-up, and
//!   must be indistinguishable from the `InProcessTrainer` the driver falls
//!   back to, unit by unit and in results and checkpoint bytes.
//! * Resume validation lives behind one `restore` per method, entered from
//!   one place, so one table can feed every method every wrong checkpoint.

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;

use fedclust_repro::data::{DatasetProfile, FederatedDataset, Partition};
use fedclust_repro::fedclust::clustering::ClusteringOutcome;
use fedclust_repro::fedclust::{FedClust, SavedFederation};
use fedclust_repro::fl::checkpoint::{
    generation_file, Checkpoint, FedDynState, LgState, MethodState, ScaffoldState,
};
use fedclust_repro::fl::engine::{
    init_model, settle, train_unit, InProcessTrainer, LocalJob, RemoteOutcome, RemoteRound,
    RemoteTrainer, MODE_TRAIN, MODE_WARMUP,
};
use fedclust_repro::fl::methods::{
    Cfl, FedAvg, FedDyn, FedNova, FedProx, Ifca, LgFedAvg, Pacfl, PerFedAvg, Scaffold,
};
use fedclust_repro::fl::{
    CheckpointError, Checkpointer, CodecSpec, CommMeter, FaultPlan, FaultTelemetry, FlConfig,
    FlMethod,
};
use fedclust_repro::nn::Model;

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

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fedclust-driver-{}-{}", tag, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The worker fleet without the network: each unit goes through the
/// worker's own `train_unit` and the pushes through the server's own
/// `settle`, so what reaches the driver is what `fedclustd` would have
/// made of a fleet that lost nothing.
struct InProcessFleet<'a> {
    fd: &'a FederatedDataset,
    cfg: FlConfig,
    template: Model,
    /// Trainer calls in training mode and in warm-up mode: a round is one
    /// call, however many clusters it trains.
    train_calls: AtomicUsize,
    warmup_calls: AtomicUsize,
    /// The most distinct start states one call's units carried.
    most_start_states: AtomicUsize,
}

impl<'a> InProcessFleet<'a> {
    fn new(fd: &'a FederatedDataset, cfg: FlConfig) -> Self {
        InProcessFleet {
            fd,
            cfg,
            template: init_model(fd, &cfg),
            train_calls: AtomicUsize::new(0),
            warmup_calls: AtomicUsize::new(0),
            most_start_states: AtomicUsize::new(0),
        }
    }
}

impl RemoteTrainer for InProcessFleet<'_> {
    fn train_remote(&self, mut req: RemoteRound) -> RemoteOutcome {
        assert!(!req.jobs.is_empty(), "a call with nothing to train");
        let calls = match req.mode {
            MODE_WARMUP => &self.warmup_calls,
            _ => &self.train_calls,
        };
        calls.fetch_add(1, Ordering::Relaxed);
        let start_states: BTreeSet<_> = req.jobs.iter().map(|j| j.start_state.as_ptr()).collect();
        self.most_start_states
            .fetch_max(start_states.len(), Ordering::Relaxed);
        let mut residuals = std::mem::take(&mut req.residuals).into_iter();
        let pushes = req.jobs.iter().map(|&job| {
            let residual = residuals.next().unwrap_or_default();
            let push = train_unit(self.fd, &self.cfg, &self.template, req.mode, job, residual);
            (
                job.client,
                push.expect("the server's own units are trainable"),
            )
        });
        let pushes: BTreeMap<usize, _> = pushes.collect();
        assert_eq!(pushes.len(), req.jobs.len(), "a client in two units");
        settle(&req, pushes, Vec::new())
    }
}

/// The two configurations every fleet-vs-local comparison runs under: a
/// plain one, and one with a residual-carrying codec and every fault kind.
fn plain_and_hostile() -> [(&'static str, FlConfig); 2] {
    let plain = {
        let mut cfg = FlConfig::tiny(21);
        cfg.rounds = 3;
        cfg
    };
    let hostile = FlConfig {
        codec: CodecSpec::parse("delta+topk:0.1").unwrap(),
        faults: FaultPlan {
            downlink_loss: 0.2,
            max_downlink_retries: 1,
            uplink_loss: 0.2,
            corruption_rate: 0.15,
            ..FaultPlan::none()
        },
        ..plain
    };
    [("plain", plain), ("hostile", hostile)]
}

/// Host `m` on an `InProcessFleet` and in process at once, and require one
/// trainer call per round (plus FedClust's one warm-up) and the same result
/// and final checkpoint bytes from both. Returns the most distinct start
/// states one of the fleet's calls carried.
fn fleet_agrees_with_local(
    fd: &FederatedDataset,
    m: &dyn FlMethod,
    tag: &str,
    cfg: FlConfig,
) -> usize {
    let name = m.name().to_lowercase();
    let fleet = InProcessFleet::new(fd, cfg);
    let dir_fleet = tmpdir(&format!("fleet-{}-{}", tag, name));
    let dir_local = tmpdir(&format!("local-{}-{}", tag, name));
    // Both federations are in flight at once: each waits for the
    // other before its first round.
    let start = Barrier::new(2);
    let host = |dir: &PathBuf, trainer: Option<&dyn RemoteTrainer>| {
        let mut ckpt = Checkpointer::new(dir).keep(8);
        start.wait();
        let result = m.run_hosted(fd, &cfg, &mut ckpt, trainer);
        let result = result.expect("hosted run succeeds");
        let last = std::fs::read(dir.join(generation_file(cfg.rounds)));
        (result, last.expect("final generation reads"))
    };
    let (networked, local) = std::thread::scope(|s| {
        let networked = s.spawn(|| host(&dir_fleet, Some(&fleet)));
        let local = s.spawn(|| host(&dir_local, None));
        (networked.join().unwrap(), local.join().unwrap())
    });
    // One trainer call per round, whatever the number of clusters,
    // plus FedClust's one warm-up.
    let fedclust = m.name() == "FedClust";
    assert_eq!(
        (
            fleet.train_calls.load(Ordering::Relaxed),
            fleet.warmup_calls.load(Ordering::Relaxed)
        ),
        (cfg.rounds, fedclust as usize),
        "{} ({}): (training, warm-up) calls",
        m.name(),
        tag
    );
    assert_eq!(
        networked.0,
        local.0,
        "{} ({}): fleet result diverged",
        m.name(),
        tag
    );
    assert_eq!(
        format!("{:?}", networked.0),
        format!("{:?}", local.0),
        "{} ({}): fleet result prints differently",
        m.name(),
        tag
    );
    assert_eq!(
        networked.1,
        local.1,
        "{} ({}): final checkpoint bytes differ",
        m.name(),
        tag
    );
    if tag == "hostile" {
        assert!(
            local.0.faults.faults_injected > 0,
            "{}: the hostile plan injected nothing",
            m.name()
        );
    }
    let _ = std::fs::remove_dir_all(&dir_fleet);
    let _ = std::fs::remove_dir_all(&dir_local);
    fleet.most_start_states.load(Ordering::Relaxed)
}

#[test]
fn a_fleet_and_a_local_federation_in_one_process_agree_byte_for_byte() {
    let fd = fd(21);
    let methods: Vec<Box<dyn FlMethod>> = vec![
        Box::new(FedAvg),
        Box::new(FedProx),
        Box::new(Cfl),
        Box::new(Pacfl),
        Box::new(FedClust::default()),
    ];
    // Methods some call of which carried units of several start states: the
    // members of different clusters in flight together.
    let mut clustered_batches = BTreeSet::new();
    for (tag, cfg) in plain_and_hostile() {
        for m in &methods {
            assert!(m.distributes(), "{} must be fleet-capable", m.name());
            if fleet_agrees_with_local(&fd, m.as_ref(), tag, cfg) >= 2 {
                clustered_batches.insert(m.name());
            }
        }
    }
    assert!(
        clustered_batches.contains("PACFL") && clustered_batches.contains("FedClust"),
        "trained two clusters in one call: only {clustered_batches:?}"
    );
}

/// IFCA is no fleet method — a client picks its model by evaluating all k
/// on its own data, on the server — but what it trains goes through the
/// trainer like any clustered round: one call per round, the clients of
/// different models in flight together, and a fleet-backed run is the
/// local one byte for byte.
#[test]
fn ifca_trains_each_round_in_one_trainer_call() {
    let fd = fd(21);
    let most_start_states = plain_and_hostile()
        .map(|(tag, cfg)| fleet_agrees_with_local(&fd, &Ifca::default(), tag, cfg));
    assert!(
        most_start_states.iter().any(|&n| n >= 2),
        "no call trained two of IFCA's models: {most_start_states:?}"
    );
}

/// Everything an update carries, with the floats as bits.
type UpdateBits = (usize, usize, u32, Vec<u32>, Option<usize>, Option<Vec<u32>>);

fn outcome_bits(outcome: RemoteOutcome) -> (Vec<UpdateBits>, Vec<usize>) {
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
    let updates = outcome.updates.iter().map(|u| {
        (
            u.client,
            u.steps,
            u.weight.to_bits(),
            bits(&u.state),
            u.wire_bytes,
            u.residual.as_deref().map(bits),
        )
    });
    (updates.collect(), outcome.lost)
}

/// In-process training is the fleet without the sockets: for the same
/// request — units from two start states, each with its own residual — the
/// `InProcessTrainer` and the worker's `train_unit` + the server's `settle`
/// return the same outcome, update for update, under every kind of codec,
/// with no residual yet, one of a stale shape and one of the state's, and
/// for a warm-up.
#[test]
fn the_in_process_trainer_is_the_fleet_without_sockets() {
    let fd = fd(25);
    let theta = init_model(&fd, &FlConfig::tiny(25)).state_vec();
    let half: Vec<f32> = theta.iter().map(|v| v * 0.5).collect();
    let runs = [
        ("none", MODE_TRAIN),
        ("q8+sr", MODE_TRAIN),
        ("delta+topk:0.1", MODE_TRAIN),
        ("delta+topk:0.1", MODE_WARMUP),
    ];
    for (codec, mode) in runs {
        let cfg = FlConfig {
            codec: CodecSpec::parse(codec).unwrap(),
            ..FlConfig::tiny(25)
        };
        let fleet = InProcessFleet::new(&fd, cfg);
        let in_process = InProcessTrainer::new(&fd, &cfg);
        for residual_len in [0, 3, theta.len()] {
            let request = || RemoteRound {
                mode,
                jobs: (0..fd.num_clients())
                    .map(|client| LocalJob {
                        start_state: if client < 3 { &theta } else { &half },
                        epochs: 1,
                        client,
                        round: 2,
                        prox_mu: None,
                    })
                    .collect(),
                residuals: match mode {
                    MODE_WARMUP => Vec::new(),
                    _ => (0..fd.num_clients())
                        .map(|c| vec![0.01 * c as f32; residual_len])
                        .collect(),
                },
            };
            let fleet_outcome = outcome_bits(fleet.train_remote(request()));
            assert_eq!(fleet_outcome.0.len(), fd.num_clients());
            assert_eq!(
                outcome_bits(in_process.train_remote(request())),
                fleet_outcome,
                "{codec}, mode {mode}, residual of {residual_len}"
            );
        }
    }
}

/// A checkpoint for `(method, seed)` carrying `state`, as the only
/// generation in a fresh directory; returns what resuming from it yields.
fn resume_from(
    m: &dyn FlMethod,
    fd: &FederatedDataset,
    cfg: &FlConfig,
    state: MethodState,
) -> CheckpointError {
    let dir = tmpdir(&format!("restore-{}", m.name().to_lowercase()));
    Checkpointer::new(&dir)
        .save_now(&Checkpoint {
            method: m.name().to_string(),
            seed: cfg.seed,
            next_round: 1,
            meter: CommMeter::new(),
            telemetry: FaultTelemetry::default(),
            history: Vec::new(),
            state,
            residuals: Vec::new(),
        })
        .expect("checkpoint writes");
    let mut ckpt = Checkpointer::new(&dir).resume(true);
    let err = m
        .run_hosted(fd, cfg, &mut ckpt, None)
        .expect_err("a wrong checkpoint must not resume");
    let _ = std::fs::remove_dir_all(&dir);
    err
}

fn mismatch(what: &str, actual: usize, expected: usize) -> CheckpointError {
    CheckpointError::Mismatch(format!(
        "{}: checkpoint carries {} values, this run needs {} \
         (different model, federation, or hyper-parameters?)",
        what, actual, expected
    ))
}

#[test]
fn every_method_rejects_every_checkpoint_that_is_not_its_own() {
    let fd = fd(23);
    let cfg = FlConfig::tiny(23);
    let template = init_model(&fd, &cfg);
    let (state_len, num_params) = (template.state_len(), template.num_params());
    let good = template.state_vec();
    let clients = fd.num_clients();

    // One instance of every variant. Each is well-formed for its own
    // method except in one length, so the own-variant case below trips the
    // first `check_len` of that method's `restore`.
    let variants = || -> Vec<MethodState> {
        vec![
            MethodState::Global {
                state: vec![0.0; state_len + 1],
            },
            MethodState::Lg(LgState {
                global_part: vec![0.0; state_len + 1],
                client_states: vec![good.clone(); clients],
            }),
            MethodState::Scaffold(ScaffoldState {
                state: good.clone(),
                c_global: vec![0.0; num_params + 1],
                c_clients: vec![vec![0.0; num_params]; clients],
            }),
            MethodState::FedDyn(FedDynState {
                state: good.clone(),
                h: vec![0.0; num_params],
                lambdas: vec![vec![0.0; num_params]; clients + 1],
            }),
            MethodState::Ifca {
                states: vec![good.clone(); 3],
            },
            MethodState::Cfl {
                states: vec![good.clone()],
                members: vec![(0..clients).collect()],
                last_update: vec![Some(vec![0.0; num_params + 1]); clients],
                reference_norm: None,
            },
            MethodState::Clustered {
                states: vec![good.clone(); 2],
                labels: vec![2; clients],
            },
            MethodState::FedClust {
                federation_json: SavedFederation {
                    model_spec: cfg.model,
                    geometry: (fd.channels, fd.height, fd.width, fd.num_classes),
                    init_state: good.clone(),
                    labels: vec![0; clients],
                    cluster_states: vec![good.clone()],
                    representatives: Vec::new(),
                    outcome: ClusteringOutcome {
                        labels: vec![0; clients],
                        num_clusters: 1,
                        lambda: 0.5,
                    },
                }
                .to_json(),
            },
        ]
    };

    // method, the variant it writes, what its own (malformed) variant trips.
    let methods: Vec<(Box<dyn FlMethod>, &str, CheckpointError)> = vec![
        (
            Box::new(FedAvg),
            "Global",
            mismatch("global state", state_len + 1, state_len),
        ),
        (
            Box::new(FedProx),
            "Global",
            mismatch("global state", state_len + 1, state_len),
        ),
        (
            Box::new(FedNova),
            "Global",
            mismatch("global state", state_len + 1, state_len),
        ),
        (
            Box::new(PerFedAvg),
            "Global",
            mismatch("meta state", state_len + 1, state_len),
        ),
        (Box::new(LgFedAvg), "Lg", {
            let blocks = template.param_blocks();
            let tail = state_len - blocks[blocks.len() - 2].offset;
            mismatch("global tail", state_len + 1, tail)
        }),
        (
            Box::new(Scaffold),
            "Scaffold",
            mismatch("global control variate", num_params + 1, num_params),
        ),
        (
            Box::new(FedDyn),
            "FedDyn",
            mismatch("client duals", clients + 1, clients),
        ),
        (
            Box::new(Ifca::default()),
            "Ifca",
            mismatch("cluster models", 3, 4),
        ),
        (
            Box::new(Cfl),
            "Cfl",
            mismatch("cached update", num_params + 1, num_params),
        ),
        (
            Box::new(Pacfl),
            "Clustered",
            CheckpointError::Mismatch("cluster label 2 out of range for 2 clusters".into()),
        ),
        (
            Box::new(FedClust::default()),
            "FedClust",
            mismatch("representatives", 0, 1),
        ),
    ];

    for (m, own, own_error) in &methods {
        for state in variants() {
            let kind = state.kind();
            let err = resume_from(m.as_ref(), &fd, &cfg, state);
            let expected = if kind == *own {
                own_error.clone()
            } else {
                CheckpointError::WrongState(format!(
                    "{} cannot resume from a {} checkpoint",
                    m.name(),
                    kind
                ))
            };
            assert_eq!(err, expected, "{} fed a {} checkpoint", m.name(), kind);
        }
    }
}
