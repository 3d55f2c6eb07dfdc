//! Shared round machinery: model initialisation, deterministic client
//! sampling, local training, weighted aggregation, and all-client
//! evaluation.
//!
//! Every method implementation composes these primitives; they are the
//! "FedAvg skeleton" the paper's Algorithm 1 shares with its baselines.

use crate::codec;
use crate::config::FlConfig;
use fedclust_data::{ClientData, FederatedDataset};
use fedclust_nn::loss::cross_entropy;
use fedclust_nn::optim::{Sgd, SgdConfig};
use fedclust_nn::Model;
use fedclust_proto::{Msg, PushBody};
use fedclust_tensor::rng::{derive, streams};
use rand::seq::SliceRandom;
use rayon::prelude::*;
use std::collections::BTreeMap;
use std::ops::Range;

/// One batch of training: every unit a round (or FedClust's warm-up)
/// trains, all in flight at once. A unit is a [`LocalJob`] and carries its
/// own start state — a clustered round's units start from as many states as
/// there are sampled clusters — whose `upload` slice is also the reference
/// its upload is decoded and length-checked against. The fleet names a
/// unit by `(round, client)`, so a client appears in at most one job of a
/// batch.
pub struct RemoteRound<'a> {
    /// The slice of each trained state that its unit uploads: all of it in
    /// a training round, the selected partial weights in FedClust's
    /// warm-up (Algorithm 1 line 5).
    pub upload: Range<usize>,
    /// The units, in the order results must come back. Jobs that share a
    /// start state share the slice, so a trainer can tell by address.
    pub jobs: Vec<LocalJob<'a>>,
    /// Each job's canonical error-feedback residual for the trainer-side
    /// codec, aligned with `jobs` (empty vectors for residual-free codecs).
    pub residuals: Vec<Vec<f32>>,
}

/// One client's update as its trainer delivered it.
pub struct RemoteUpdate {
    /// Client id.
    pub client: usize,
    /// Local optimizer steps τ_i.
    pub steps: usize,
    /// Training-set size `n_i`.
    pub weight: f32,
    /// The server-side reconstruction of the upload (the trainer's encoder
    /// pins it; raw state when no codec is active).
    pub state: Vec<f32>,
    /// Bytes that actually crossed the network under a codec; `None`
    /// means the raw 4-bytes-per-scalar accounting applies.
    pub wire_bytes: Option<usize>,
    /// The advanced error-feedback residual (top-k codecs only).
    pub residual: Option<Vec<f32>>,
    /// What the client keeps from its training, whatever the upload's
    /// fate (its [`LocalRule`] says what; empty for most rules).
    pub kept: Vec<f32>,
}

/// What came back from a remote round: updates in request-client order,
/// plus the clients whose workers never delivered (retries exhausted or
/// round deadline hit) — the graceful-degradation set.
pub struct RemoteOutcome {
    /// Delivered updates, ordered like `RemoteRound::jobs`.
    pub updates: Vec<RemoteUpdate>,
    /// Clients written off for this round.
    pub lost: Vec<usize>,
}

/// Whoever trains a run's clients: fedclustd's worker fleet, or the
/// [`InProcessTrainer`] [`crate::driver::run_federation`] uses when the host
/// gives none. Round training and FedClust's warm-up both go through it.
pub trait RemoteTrainer: Send + Sync {
    /// Train `req.jobs`, all at once, and return what was delivered, as
    /// [`settle`] reads it.
    fn train_remote(&self, req: RemoteRound) -> RemoteOutcome;
}

/// The fleet without the sockets: every unit trains on this process's pool
/// through the unit body a worker runs, and none is lost. Like a worker, it
/// builds its own template, and each pool participant trains its units on
/// one replica of it.
pub struct InProcessTrainer<'a> {
    fd: &'a FederatedDataset,
    cfg: &'a FlConfig,
    template: Model,
}

impl<'a> InProcessTrainer<'a> {
    /// The trainer for a run on `fd` under `cfg`.
    pub fn new(fd: &'a FederatedDataset, cfg: &'a FlConfig) -> Self {
        InProcessTrainer {
            fd,
            cfg,
            template: init_model(fd, cfg),
        }
    }
}

impl RemoteTrainer for InProcessTrainer<'_> {
    /// One parallel map over the jobs, each with the residual the request
    /// carries for it, on its participant's replica.
    fn train_remote(&self, req: RemoteRound) -> RemoteOutcome {
        let residuals = req
            .residuals
            .into_iter()
            .chain(std::iter::repeat(Vec::new()));
        let units: Vec<(LocalJob, Vec<f32>)> = req.jobs.iter().copied().zip(residuals).collect();
        let updates = units.into_par_iter().map_init(
            || self.template.clone(),
            |replica, (job, residual)| {
                let data = &self.fd.clients[job.client];
                run_unit(data, self.cfg, replica, &req.upload, job, residual).0
            },
        );
        RemoteOutcome {
            updates: updates.collect(),
            lost: Vec::new(),
        }
    }
}

/// One unit, as a worker and [`InProcessTrainer`] both run it: train `job`
/// on `data` on `replica` ([`train_on`]), then send what its rule uploads —
/// the `upload` slice of the trained state, which must fit the start state,
/// unless the rule says otherwise — through the client half of the upload
/// ([`codec::upload`]), against [`LocalRule::reference`]. What the client
/// keeps and uploads is made from the raw trained state, before the codec.
/// Returns the update and its wire message, if it was encoded.
fn run_unit(
    data: &ClientData,
    cfg: &FlConfig,
    replica: &mut Model,
    upload: &Range<usize>,
    job: LocalJob,
    residual: Vec<f32>,
) -> (RemoteUpdate, Option<Vec<u8>>) {
    let steps = train_on(replica, data, cfg, job);
    let (start, mut state) = (job.start_state, replica.state_vec());
    // A copy, not the trained state cut down in place: a warm-up keeps
    // every client's slice, and each would hold a whole state's memory.
    let cut = |state: Vec<f32>| {
        if upload.len() < state.len() {
            state[upload.clone()].to_vec()
        } else {
            state
        }
    };
    let (state, kept) = match job.rule {
        LocalRule::Sgd(_) | LocalRule::Maml { .. } => (cut(state), Vec::new()),
        LocalRule::SgdKept => (state[upload.clone()].to_vec(), state),
        LocalRule::FedDyn { alpha, lambda_i } => {
            let duals = lambda_i.iter().zip(state.iter().zip(start));
            let kept = duals.map(|(l, (w, g))| l - alpha * (w - g)).collect();
            (cut(state), kept)
        }
        LocalRule::Scaffold { c, c_i } => {
            let k_eta = (steps.max(1) as f32) * cfg.lr;
            let new_ci: Vec<f32> = (0..c.len())
                .map(|j| c_i[j] - c[j] + (start[j] - state[j]) / k_eta)
                .collect();
            for (w, s) in state[..c.len()].iter_mut().zip(start) {
                *w -= s;
            }
            state.extend(new_ci.iter().zip(c_i).map(|(a, b)| a - b));
            (state, new_ci)
        }
    };
    let reference = job.rule.reference(start, upload);
    let (state, wire, residual) = codec::upload(
        cfg.codec, cfg.seed, job.round, job.client, state, reference, residual,
    );
    let update = RemoteUpdate {
        client: job.client,
        steps,
        weight: data.train_samples() as f32,
        state,
        wire_bytes: wire.as_ref().map(Vec::len),
        residual,
        kept,
    };
    (update, wire)
}

/// One client's local training: `epochs` epochs of `rule`'s local step
/// from `start_state`, its minibatches drawn from [`local_train`]'s
/// `(client, round)` stream.
#[derive(Clone, Copy)]
pub struct LocalJob<'a> {
    /// The state the replica starts from.
    pub start_state: &'a [f32],
    /// Local epochs to run.
    pub epochs: usize,
    /// Keys the minibatch stream; a dataset index only where the caller
    /// looks the data up by it.
    pub client: usize,
    /// Keys the minibatch stream.
    pub round: usize,
    /// The method's client step.
    pub rule: LocalRule<'a>,
}

/// A method's client step: how a unit trains, what it uploads and what the
/// client keeps ([`RemoteUpdate::kept`]), from vectors the server keeps on
/// the client's behalf. Only `Sgd` crosses the wire (a `Work` frame carries
/// its μ); `fedclustd` refuses every method that uses another rule.
#[derive(Clone, Copy, Debug)]
pub enum LocalRule<'a> {
    /// The run's SGD, with FedProx's proximal term when μ is set.
    Sgd(Option<f32>),
    /// LG-FedAvg: `Sgd(None)`, and the client keeps its whole trained state.
    SgdKept,
    /// SCAFFOLD (option II): plain SGD on `g + c − c_i`; uploads Δw ++ extra
    /// state ++ Δc and keeps `c_i⁺ = c_i − c + (x − w)/(K·η)`.
    Scaffold {
        /// The server's control variate, one entry per parameter.
        c: &'a [f32],
        /// The client's control variate.
        c_i: &'a [f32],
    },
    /// FedDyn: plain SGD on `g − λ_i + α(w − θ)`; keeps `λ_i − α(w − θ)`.
    FedDyn {
        /// The regularizer strength α.
        alpha: f32,
        /// The client's dual λ_i, one entry per parameter.
        lambda_i: &'a [f32],
    },
    /// Per-FedAvg's first-order MAML step on each pair of minibatches.
    Maml {
        /// The inner (adaptation) rate, on the first of a pair.
        alpha: f32,
        /// The outer (meta) rate, applying the second's gradient.
        beta: f32,
    },
}

impl LocalRule<'_> {
    /// An upload's codec reference, which a stale corruption replays: the
    /// `upload` slice of the start state, or none for SCAFFOLD's deltas.
    pub(crate) fn reference<'s>(
        &self,
        start_state: &'s [f32],
        upload: &Range<usize>,
    ) -> Option<&'s [f32]> {
        match self {
            LocalRule::Scaffold { .. } => None,
            _ => Some(&start_state[upload.clone()]),
        }
    }
}

/// The worker's half of one [`RemoteRound`] unit, uploading the slice
/// `upload` of the trained state: the unit body [`InProcessTrainer`] runs
/// too, in a `Push` frame, trained on `replica` (a worker keeps one for
/// its session; each unit overwrites its state). A unit this side cannot
/// train — a client `fd` does not have, a state `replica` has no room for,
/// an upload slice the state does not hold: a server built from another
/// commit, or a hostile peer — is an error, never a panic. A residual of
/// any length is trainable: the codec discards one of a stale shape, and
/// FedClust's first full-state round legitimately carries the warm-up's
/// partial-weight one.
pub fn train_unit(
    fd: &FederatedDataset,
    cfg: &FlConfig,
    replica: &mut Model,
    upload: Range<usize>,
    job: LocalJob,
    residual: Vec<f32>,
) -> Result<Msg, String> {
    let (clients, state_len) = (fd.num_clients(), replica.state_len());
    if job.client >= clients || job.start_state.len() != state_len {
        return Err(format!(
            "server sent client {} with a state of {} values, \
             but the dataset has {clients} clients and the model {state_len} values",
            job.client,
            job.start_state.len(),
        ));
    }
    if upload.start > upload.end || upload.end > state_len {
        return Err(format!(
            "server asked for the upload slice {upload:?} of a state of {state_len} values"
        ));
    }
    let data = &fd.clients[job.client];
    let (update, wire) = run_unit(data, cfg, replica, &upload, job, residual);
    let body = match wire {
        Some(wire) => PushBody::Encoded {
            wire,
            residual: update.residual.unwrap_or_default(),
        },
        None => PushBody::Raw(update.state),
    };
    Ok(Msg::Push {
        mode: 0,
        round: job.round as u32,
        client: job.client as u32,
        steps: update.steps as u32,
        weight: update.weight,
        body,
    })
}

/// What the server makes of the frame pushed for `job`, whose upload is the
/// slice `upload` of its state: its update, or `None` for one to write off.
/// A frame that passed every checksum can still be no `Push`, carry a body
/// that cannot be decoded against the same slice of the job's own start
/// state, an upload (raw or decoded) of another length than that slice, or
/// a negative or non-finite weight — a worker-side bug or a hostile peer —
/// and the aggregation arithmetic downstream assumes none of it. Weight
/// zero is valid: it is the client's training-set size (Eq. 2), and an
/// in-process client with no data uploads exactly that: received, billed,
/// contributing nothing.
fn read_push(upload: &Range<usize>, job: &LocalJob, frame: Msg) -> Option<RemoteUpdate> {
    let Msg::Push {
        steps,
        weight,
        body,
        ..
    } = frame
    else {
        return None;
    };
    let (state, wire_bytes, residual) = match body {
        PushBody::Raw(v) => (v, None, None),
        // The frame spells "no residual" as an empty one.
        PushBody::Encoded { wire, residual } => (
            codec::decode(&wire, job.start_state.get(upload.clone())).ok()?,
            Some(wire.len()),
            (!residual.is_empty()).then_some(residual),
        ),
    };
    let sized = state.len() == upload.len();
    (sized && weight.is_finite() && weight >= 0.0).then_some(RemoteUpdate {
        client: job.client,
        steps: steps as usize,
        weight,
        state,
        wire_bytes,
        residual,
        kept: Vec::new(),
    })
}

/// The server's half of a [`RemoteRound`]: turn the frames that came back,
/// keyed by client, into the outcome the driver absorbs. A frame
/// `read_push` turns down joins `lost` exactly like a worker that never
/// answered: degrade, don't die.
pub fn settle(
    req: &RemoteRound,
    mut pushes: BTreeMap<usize, Msg>,
    mut lost: Vec<usize>,
) -> RemoteOutcome {
    let mut updates = Vec::with_capacity(pushes.len());
    for job in &req.jobs {
        match pushes
            .remove(&job.client)
            .map(|f| read_push(&req.upload, job, f))
        {
            Some(Some(update)) => updates.push(update),
            Some(None) => lost.push(job.client),
            None => {}
        }
    }
    lost.sort_unstable();
    lost.dedup();
    RemoteOutcome { updates, lost }
}

/// Build the initial server model θ⁰ for a federated dataset. All methods
/// in one experiment share this initialisation (the server broadcasts θ⁰).
pub fn init_model(fd: &FederatedDataset, cfg: &FlConfig) -> Model {
    let mut rng = derive(cfg.seed, &[streams::MODEL_INIT]);
    cfg.model
        .build(fd.channels, fd.height, fd.width, fd.num_classes, &mut rng)
}

/// Deterministically sample the participating clients for `round`, then
/// apply the configured dropout: each selected client independently drops
/// with probability `cfg.dropout_rate` (deterministic per
/// `(seed, round, client)`), and at least one client always survives so
/// every round makes progress.
pub fn sample_clients(num_clients: usize, cfg: &FlConfig, round: usize) -> Vec<usize> {
    let n = cfg.clients_per_round(num_clients);
    let mut rng = derive(cfg.seed, &[streams::SAMPLING, round as u64]);
    let mut ids: Vec<usize> = (0..num_clients).collect();
    ids.shuffle(&mut rng);
    ids.truncate(n);
    ids.sort_unstable();
    if cfg.dropout_rate > 0.0 {
        use rand::Rng;
        let survivors: Vec<usize> = ids
            .iter()
            .copied()
            .filter(|&c| {
                let mut r = derive(cfg.seed, &[streams::DROPOUT, round as u64, c as u64]);
                r.gen::<f32>() >= cfg.dropout_rate
            })
            .collect();
        if survivors.is_empty() {
            return vec![ids[0]];
        }
        return survivors;
    }
    ids
}

/// The minibatches every local pass walks, one `Vec` per epoch, drawn from
/// the `(seed, client, round)` stream — so runs are reproducible
/// regardless of thread schedule.
fn epoch_batches<'a>(
    data: &'a ClientData,
    cfg: &'a FlConfig,
    epochs: usize,
    client: usize,
    round: usize,
) -> impl Iterator<Item = Vec<Vec<usize>>> + 'a {
    let mut rng = derive(
        cfg.seed,
        &[streams::LOCAL_TRAIN, client as u64, round as u64],
    );
    (0..epochs).map(move |_| data.train.minibatch_indices(cfg.batch_size, &mut rng))
}

/// Train `model` on one client's local data for `epochs` epochs of
/// minibatch SGD over `epoch_batches`. Returns the number of optimizer
/// steps taken (FedNova's τ_i).
pub fn local_train(
    model: &mut Model,
    data: &ClientData,
    opt: &mut Sgd,
    epochs: usize,
    cfg: &FlConfig,
    client: usize,
    round: usize,
) -> usize {
    let mut steps = 0;
    for batch in epoch_batches(data, cfg, epochs, client, round).flatten() {
        let (x, y) = data.train.batch(&batch);
        model.train_step(x, &y, opt);
        steps += 1;
    }
    steps
}

/// A fresh replica of `template` trained on `data` as `job` says; returns
/// it with the steps taken.
pub fn train_replica(
    template: &Model,
    data: &ClientData,
    cfg: &FlConfig,
    job: LocalJob,
) -> (Model, usize) {
    let mut model = template.clone();
    let steps = train_on(&mut model, data, cfg, job);
    (model, steps)
}

/// Train `replica` on `data` as `job` says, from `job.start_state` whatever
/// it held before; returns the steps taken. What a model keeps besides its
/// state is scratch (workspaces, caches, zeroed gradients), so a replica
/// that trained or evaluated before trains to the bits a fresh clone does.
fn train_on(replica: &mut Model, data: &ClientData, cfg: &FlConfig, job: LocalJob) -> usize {
    replica.set_state_vec(job.start_state);
    let start = job.start_state;
    match job.rule {
        LocalRule::Sgd(_) | LocalRule::SgdKept => {
            let mut opt = Sgd::new(cfg.sgd());
            if let LocalRule::Sgd(Some(mu)) = job.rule {
                opt.set_prox(mu, replica.param_tensors());
            }
            let (epochs, client, round) = (job.epochs, job.client, job.round);
            local_train(replica, data, &mut opt, epochs, cfg, client, round)
        }
        LocalRule::Scaffold { c, c_i } => {
            local_train_corrected(replica, data, cfg, job, |i, _, g| g + c[i] - c_i[i])
        }
        LocalRule::FedDyn { alpha, lambda_i } => {
            local_train_corrected(replica, data, cfg, job, |i, w, g| {
                g - lambda_i[i] + alpha * (w - start[i])
            })
        }
        LocalRule::Maml { alpha, beta } => local_train_maml(replica, data, cfg, job, alpha, beta),
    }
}

/// [`local_train`] for rules that correct the gradient themselves
/// (SCAFFOLD's control variates, FedDyn's dynamic regularizer): plain SGD
/// where parameter `i` (flat index) steps by `w ← w − lr·correct(i, w, g)`.
/// Same minibatch stream as [`local_train`]; returns the steps taken.
fn local_train_corrected(
    model: &mut Model,
    data: &ClientData,
    cfg: &FlConfig,
    job: LocalJob,
    correct: impl Fn(usize, f32, f32) -> f32,
) -> usize {
    let mut steps = 0;
    for batch in epoch_batches(data, cfg, job.epochs, job.client, job.round).flatten() {
        let (x, y) = data.train.batch(&batch);
        let logits = model.forward(x, true);
        let (_, grad) = cross_entropy(&logits, &y);
        model.backward_params(grad);
        let mut off = 0;
        for p in model.params_mut() {
            let n = p.value.numel();
            for j in 0..n {
                let w = p.value.data()[j];
                p.value.data_mut()[j] = w - cfg.lr * correct(off + j, w, p.grad.data()[j]);
            }
            p.zero_grad();
            off += n;
        }
        steps += 1;
    }
    steps
}

/// [`LocalRule::Maml`]'s pass: one first-order MAML step per pair of an
/// epoch's minibatches (an odd one out is skipped: a meta-step needs two
/// independent batches). Returns the meta-steps taken.
fn local_train_maml(
    model: &mut Model,
    data: &ClientData,
    cfg: &FlConfig,
    job: LocalJob,
    alpha: f32,
    beta: f32,
) -> usize {
    let mut steps = 0;
    for batches in epoch_batches(data, cfg, job.epochs, job.client, job.round) {
        for pair in batches.chunks_exact(2) {
            let w = model.param_vec();
            // Inner step on B₁ with rate α (no momentum, as in MAML).
            let mut inner = Sgd::new(SgdConfig {
                lr: alpha,
                momentum: 0.0,
            });
            let (x1, y1) = data.train.batch(&pair[0]);
            model.train_step(x1, &y1, &mut inner);
            // Gradient on B₂ at the adapted weights.
            let (x2, y2) = data.train.batch(&pair[1]);
            let logits = model.forward(x2, true);
            let (_, grad) = cross_entropy(&logits, &y2);
            model.backward_params(grad);
            // Apply ∇f(w′) to the original w with rate β.
            let grads = model.params().into_iter().flat_map(|p| p.grad.data());
            let new_w: Vec<f32> = w.iter().zip(grads).map(|(&wi, &g)| wi - beta * g).collect();
            model.zero_grad();
            model.set_param_vec(&new_w);
            steps += 1;
        }
    }
    steps
}

/// The payload a client uploads after local training.
#[derive(Debug, Clone)]
pub struct ClientUpdate {
    /// Client id.
    pub client: usize,
    /// Full post-training state vector (params + extra state).
    pub state: Vec<f32>,
    /// Training-set size `n_i` (the FedAvg weight).
    pub weight: f32,
    /// Local optimizer steps τ_i (for FedNova).
    pub steps: usize,
}

/// Run local training on every sampled client in parallel, each on a fresh
/// replica of `template` starting from `start_state` for
/// `cfg.local_epochs` epochs, and collect the raw updates in `sampled`
/// order. No method trains through it (they go through
/// [`RoundCtx`](crate::driver::RoundCtx)); `fedbench-trace`'s replay is its
/// last caller outside tests, and it goes with that replay.
pub fn train_sampled(
    fd: &FederatedDataset,
    cfg: &FlConfig,
    template: &Model,
    start_state: &[f32],
    sampled: &[usize],
    round: usize,
    prox_mu: Option<f32>,
) -> Vec<ClientUpdate> {
    sampled
        .par_iter()
        .map(|&client| {
            let job = LocalJob {
                start_state,
                epochs: cfg.local_epochs,
                client,
                round,
                rule: LocalRule::Sgd(prox_mu),
            };
            let data = &fd.clients[client];
            let (model, steps) = train_replica(template, data, cfg, job);
            ClientUpdate {
                client,
                state: model.state_vec(),
                weight: data.train_samples() as f32,
                steps,
            }
        })
        .collect()
}

/// Weighted average of equal-length state vectors — Eq. 2's cluster (or
/// global) model aggregation.
///
/// # Panics
/// Panics if `items` is empty, lengths differ, or all weights are zero.
pub fn weighted_average(items: &[(&[f32], f32)]) -> Vec<f32> {
    assert!(!items.is_empty(), "nothing to average");
    let len = items[0].0.len();
    let total: f64 = items.iter().map(|(_, w)| *w as f64).sum();
    assert!(total > 0.0, "total weight must be positive");
    let mut out = vec![0.0f64; len];
    for (state, w) in items {
        assert_eq!(state.len(), len, "state length mismatch in aggregation");
        let coef = *w as f64 / total;
        for (o, &s) in out.iter_mut().zip(state.iter()) {
            *o += coef * s as f64;
        }
    }
    out.into_iter().map(|v| v as f32).collect()
}

/// [`weighted_average`] with the fault-tolerant fallback: when nothing
/// carries weight — every update of a round (or cluster) was lost or
/// quarantined, or every survivor has weight 0 (Eq. 2 weights a client by
/// its dataset size, so a client with no training data is a valid update
/// that contributes nothing) — carry `previous` forward instead of
/// panicking. The panic in [`weighted_average`] stays for genuine
/// empty-input bugs at call sites that cannot legitimately see either.
pub fn weighted_average_or(items: &[(&[f32], f32)], previous: &[f32]) -> Vec<f32> {
    if items.iter().all(|(_, w)| *w <= 0.0) {
        previous.to_vec()
    } else {
        weighted_average(items)
    }
}

/// FedAvg over a round's surviving updates: the sample-size-weighted
/// average of their full states, or `previous` when none carries weight
/// (see [`weighted_average_or`]).
pub fn average_updates(updates: &[ClientUpdate], previous: &[f32]) -> Vec<f32> {
    let items: Vec<(&[f32], f32)> = updates
        .iter()
        .map(|u| (u.state.as_slice(), u.weight))
        .collect();
    weighted_average_or(&items, previous)
}

/// Evaluate every client's local test accuracy in parallel, with the state
/// vector for client `i` provided by `state_of(i)`: [`evaluate_models`]
/// loading each client's state.
pub fn evaluate_clients<'a, F>(fd: &FederatedDataset, template: &Model, state_of: F) -> Vec<f32>
where
    F: Fn(usize) -> &'a [f32] + Sync,
{
    evaluate_models(fd, template, |replica, client| {
        replica.set_state_vec(state_of(client))
    })
}

/// Every client's local test accuracy, in parallel, with the model
/// `load(replica, i)` makes of a replica for client `i` — a state lookup,
/// one chosen by loss, or one personalised first. Each pool participant
/// clones `template` once and loads each of its clients into that replica,
/// so `load` must set the whole state it tests.
pub fn evaluate_models(
    fd: &FederatedDataset,
    template: &Model,
    load: impl Fn(&mut Model, usize) + Sync,
) -> Vec<f32> {
    (0..fd.num_clients())
        .into_par_iter()
        .map_init(
            || template.clone(),
            |replica, client| {
                load(replica, client);
                test_accuracy(replica, &fd.clients[client])
            },
        )
        .collect()
}

/// `model`'s accuracy over `data`'s whole test split; 0.0 when it is empty.
fn test_accuracy(model: &mut Model, data: &ClientData) -> f32 {
    let test = &data.test;
    if test.is_empty() {
        return 0.0;
    }
    let indices: Vec<usize> = (0..test.len()).collect();
    let (x, y) = test.batch(&indices);
    model.evaluate(x, &y).1
}

/// Hand one client `start_state`, personalise it for `epochs` epochs on the
/// client's train split, and return its accuracy over the client's whole
/// test split (0.0 when that is empty): how every newcomer of Table 6 is
/// scored, whatever model its method hands over. SGD runs at the paper's
/// personalised-method momentum 0.5 on the minibatch stream of client
/// `3_000_000 + id`, round 0; `epochs = 0` evaluates the state as handed
/// over.
pub fn personalized_accuracy(
    template: &Model,
    start_state: &[f32],
    data: &ClientData,
    cfg: &FlConfig,
    epochs: usize,
    id: usize,
) -> f32 {
    let mut model = template.clone();
    model.set_state_vec(start_state);
    if epochs > 0 {
        let mut opt = Sgd::new(SgdConfig {
            lr: cfg.lr,
            momentum: 0.5,
        });
        local_train(&mut model, data, &mut opt, epochs, cfg, 3_000_000 + id, 0);
    }
    test_accuracy(&mut model, data)
}

/// Mean of per-client accuracies — the paper's headline metric.
pub fn average_accuracy(per_client: &[f32]) -> f64 {
    if per_client.is_empty() {
        return 0.0;
    }
    per_client.iter().map(|&a| a as f64).sum::<f64>() / per_client.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::FlMethod;
    use fedclust_data::{DatasetProfile, FederatedDataset, Partition};

    fn tiny_fd(seed: u64) -> FederatedDataset {
        FederatedDataset::build(
            DatasetProfile::FmnistLike,
            Partition::LabelSkew { fraction: 0.2 },
            &fedclust_data::federated::FederatedConfig {
                num_clients: 6,
                samples_per_class: 30,
                seed,
            },
        )
    }

    #[test]
    fn sampling_is_deterministic_and_sized() {
        let cfg = FlConfig::tiny(1);
        let a = sample_clients(10, &cfg, 3);
        let b = sample_clients(10, &cfg, 3);
        assert_eq!(a, b);
        assert_eq!(a.len(), 5);
        let c = sample_clients(10, &cfg, 4);
        assert_ne!(a, c, "different rounds sample differently (w.h.p.)");
    }

    #[test]
    fn dropout_zero_is_identity() {
        let cfg = FlConfig::tiny(2);
        let mut dropped = cfg;
        dropped.dropout_rate = 0.0;
        assert_eq!(sample_clients(10, &cfg, 1), sample_clients(10, &dropped, 1));
    }

    #[test]
    fn dropout_removes_clients_but_never_everyone() {
        let mut cfg = FlConfig::tiny(3);
        cfg.sample_rate = 1.0;
        cfg.dropout_rate = 0.95;
        for round in 0..20 {
            let s = sample_clients(8, &cfg, round);
            assert!(!s.is_empty(), "round {} has no survivors", round);
            assert!(s.len() <= 8);
        }
        // With heavy dropout, at least some rounds must lose clients.
        let total: usize = (0..20).map(|r| sample_clients(8, &cfg, r).len()).sum();
        assert!(total < 20 * 8 / 2, "dropout had no effect: {}", total);
    }

    #[test]
    fn dropout_is_deterministic() {
        let mut cfg = FlConfig::tiny(4);
        cfg.dropout_rate = 0.5;
        assert_eq!(sample_clients(12, &cfg, 5), sample_clients(12, &cfg, 5));
    }

    #[test]
    fn fedavg_survives_heavy_dropout() {
        let fd = tiny_fd(5);
        let mut cfg = FlConfig::tiny(5);
        cfg.rounds = 3;
        cfg.dropout_rate = 0.7;
        let r = crate::methods::FedAvg.run(&fd, &cfg);
        assert!(r.final_acc.is_finite());
        assert!(r.total_mb > 0.0);
    }

    #[test]
    fn weighted_average_weights_correctly() {
        let a = vec![0.0f32, 0.0];
        let b = vec![1.0f32, 2.0];
        let avg = weighted_average(&[(&a, 1.0), (&b, 3.0)]);
        assert!((avg[0] - 0.75).abs() < 1e-6);
        assert!((avg[1] - 1.5).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "nothing to average")]
    fn empty_average_panics() {
        let _ = weighted_average(&[]);
    }

    #[test]
    fn empty_average_or_carries_previous_forward() {
        let prev = vec![0.25f32, -1.5, 3.0];
        assert_eq!(weighted_average_or(&[], &prev), prev);
        let a = vec![0.0f32, 0.0, 0.0];
        let b = vec![1.0f32, 2.0, 3.0];
        // So does a survivor set in which nobody carries weight...
        assert_eq!(weighted_average_or(&[(&a, 0.0), (&b, 0.0)], &prev), prev);
        // ...while one weightless member among others contributes nothing.
        assert_eq!(weighted_average_or(&[(&a, 0.0), (&b, 2.0)], &prev), b);
        // Input that carries weight must still delegate to the real average.
        assert_eq!(
            weighted_average_or(&[(&a, 1.0), (&b, 1.0)], &prev),
            weighted_average(&[(&a, 1.0), (&b, 1.0)])
        );
    }

    #[test]
    fn local_training_improves_local_accuracy() {
        let fd = tiny_fd(0);
        let cfg = FlConfig::tiny(0);
        let template = init_model(&fd, &cfg);
        let init_state = template.state_vec();

        let before = evaluate_clients(&fd, &template, |_| &init_state[..]);
        let updates = train_sampled(&fd, &cfg, &template, &init_state, &[0], 0, None);
        assert_eq!(updates.len(), 1);
        assert!(updates[0].steps > 0);

        let trained = &updates[0].state;
        let mut model = template.clone();
        model.set_state_vec(trained);
        let acc_after = test_accuracy(&mut model, &fd.clients[0]);
        // Training on ≤2 labels should beat the random-init accuracy on the
        // client's own test split.
        assert!(
            acc_after >= before[0],
            "acc before {} after {}",
            before[0],
            acc_after
        );
    }

    #[test]
    fn train_sampled_is_deterministic() {
        let fd = tiny_fd(1);
        let cfg = FlConfig::tiny(1);
        let template = init_model(&fd, &cfg);
        let s = template.state_vec();
        let u1 = train_sampled(&fd, &cfg, &template, &s, &[0, 2, 4], 1, None);
        let u2 = train_sampled(&fd, &cfg, &template, &s, &[0, 2, 4], 1, None);
        for (a, b) in u1.iter().zip(&u2) {
            assert_eq!(a.state, b.state);
        }
    }

    #[test]
    fn evaluate_all_clients_returns_one_acc_each() {
        let fd = tiny_fd(2);
        let cfg = FlConfig::tiny(2);
        let template = init_model(&fd, &cfg);
        let s = template.state_vec();
        let accs = evaluate_clients(&fd, &template, |_| &s[..]);
        assert_eq!(accs.len(), 6);
        assert!(accs.iter().all(|&a| (0.0..=1.0).contains(&a)));
        let avg = average_accuracy(&accs);
        assert!((0.0..=1.0).contains(&avg));
    }

    #[test]
    fn zero_personalization_epochs_score_the_state_as_handed_over() {
        let fd = tiny_fd(6);
        let cfg = FlConfig::tiny(6);
        let template = init_model(&fd, &cfg);
        let s = template.state_vec();
        let accs = evaluate_clients(&fd, &template, |_| &s[..]);
        for (c, data) in fd.clients.iter().enumerate() {
            let acc = personalized_accuracy(&template, &s, data, &cfg, 0, c);
            assert_eq!(acc.to_bits(), accs[c].to_bits(), "client {c}");
        }
    }

    #[test]
    fn prox_keeps_models_closer_to_start() {
        let fd = tiny_fd(3);
        let mut cfg = FlConfig::tiny(3);
        cfg.local_epochs = 4;
        let template = init_model(&fd, &cfg);
        let s = template.state_vec();
        let free = train_sampled(&fd, &cfg, &template, &s, &[1], 0, None);
        let prox = train_sampled(&fd, &cfg, &template, &s, &[1], 0, Some(1.0));
        let dist = |state: &[f32]| -> f64 {
            state
                .iter()
                .zip(&s)
                .map(|(a, b)| ((a - b) as f64).powi(2))
                .sum::<f64>()
                .sqrt()
        };
        assert!(
            dist(&prox[0].state) < dist(&free[0].state),
            "prox {} free {}",
            dist(&prox[0].state),
            dist(&free[0].state)
        );
    }

    /// The thread-equivalence suite's conv shapes: LeNet-5 on CIFAR-10-like
    /// data and ResNet-9 (batch norm, whose running statistics are state
    /// too) on CIFAR-100-like data; four clients, the last with no training
    /// data.
    fn conv_setups() -> Vec<(FederatedDataset, FlConfig)> {
        use fedclust_nn::models::ModelSpec;
        [
            (DatasetProfile::Cifar10Like, ModelSpec::LeNet5),
            (DatasetProfile::Cifar100Like, ModelSpec::ResNet9),
        ]
        .into_iter()
        .map(|(profile, model)| {
            let mut fd = FederatedDataset::build(
                profile,
                Partition::LabelSkew { fraction: 0.3 },
                &fedclust_data::federated::FederatedConfig {
                    num_clients: 4,
                    samples_per_class: 4,
                    seed: 23,
                },
            );
            fd.clients[3].train = fd.clients[3].train.subset(&[]);
            let mut cfg = FlConfig::tiny(23);
            cfg.model = model;
            (fd, cfg)
        })
        .collect()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// A replica that has just trained from another state, loaded with a
    /// client's state, gives that client's test split the logits (and so
    /// the accuracy) a fresh clone gives it, to the bit; and
    /// `evaluate_clients`, whose participants each load every client they
    /// claim into one replica, equals fresh-clone evaluation.
    #[test]
    fn a_dirty_replica_evaluates_like_a_fresh_clone() {
        for (fd, cfg) in conv_setups() {
            let template = init_model(&fd, &cfg);
            let theta = template.state_vec();
            let n = fd.num_clients();
            let states: Vec<Vec<f32>> = (0..n)
                .map(|c| train_replica(&template, &fd.clients[c], &cfg, job(&theta, c)).0)
                .map(|model| model.state_vec())
                .collect();
            let fresh = |c: usize| {
                let mut model = template.clone();
                model.set_state_vec(&states[c]);
                model
            };
            let logits = |model: &mut Model, data: &ClientData| {
                let indices: Vec<usize> = (0..data.test.len()).collect();
                let (x, _) = data.test.batch(&indices);
                bits(model.forward(x, false).data())
            };
            let mut dirty = template.clone();
            for c in (0..n).filter(|&c| !fd.clients[c].test.is_empty()) {
                let (from, on) = (&states[(c + 2) % n], (c + 1) % n);
                train_on(&mut dirty, &fd.clients[on], &cfg, job(from, on));
                dirty.set_state_vec(&states[c]);
                let data = &fd.clients[c];
                let tag = cfg.model.tag();
                assert_eq!(
                    logits(&mut dirty, data),
                    logits(&mut fresh(c), data),
                    "{tag} {c}"
                );
            }
            let want: Vec<f32> = (0..n)
                .map(|c| test_accuracy(&mut fresh(c), &fd.clients[c]))
                .collect();
            let got = evaluate_clients(&fd, &template, |c| &states[c]);
            assert_eq!(bits(&got), bits(&want), "{}", cfg.model.tag());

            // A loader that personalises first, as Per-FedAvg's does: a
            // replica that trained for the clients before it equals a fresh
            // clone trained the same way.
            let personalise = |model: &mut Model, c: usize| {
                model.set_state_vec(&states[(c + 1) % n]);
                let mut opt = Sgd::new(SgdConfig {
                    lr: 0.01,
                    momentum: 0.0,
                });
                local_train(model, &fd.clients[c], &mut opt, 1, &cfg, c, usize::MAX - 1);
            };
            let want: Vec<f32> = (0..n)
                .map(|c| {
                    let mut model = template.clone();
                    personalise(&mut model, c);
                    test_accuracy(&mut model, &fd.clients[c])
                })
                .collect();
            for threads in [1, 2] {
                rayon::set_num_threads(threads);
                let got = evaluate_models(&fd, &template, personalise);
                let tag = cfg.model.tag();
                assert_eq!(bits(&got), bits(&want), "{tag} at {threads} threads");
            }
            rayon::set_num_threads(1);
        }
    }

    /// `InProcessTrainer` trains all the units a participant claims on one
    /// replica. A batch in which units of every `LocalRule` and a client
    /// with no training data follow units from other start states returns,
    /// unit by unit, the update (payload, steps, what the client keeps) a
    /// fresh replica gives: at one thread (one replica for the whole batch)
    /// and at two. On ResNet-9 the state is longer than the parameters, so
    /// SCAFFOLD's and FedDyn's batch-norm branches run too.
    #[test]
    fn in_process_units_on_one_replica_equal_fresh_replicas() {
        for (fd, cfg) in conv_setups() {
            let template = init_model(&fd, &cfg);
            let theta = template.state_vec();
            let (other, _) = train_replica(&template, &fd.clients[1], &cfg, job(&theta, 1));
            let other = other.state_vec();
            let num_params = template.num_params();
            let small = |scale: f32, period: usize| -> Vec<f32> {
                (0..num_params)
                    .map(|i| (i % period) as f32 * scale)
                    .collect()
            };
            let (c, c_i, lambda_i) = (small(1e-3, 7), small(-2e-3, 5), small(1e-3, 3));
            let rules = [
                LocalRule::Sgd(Some(0.5)),
                LocalRule::SgdKept,
                LocalRule::Scaffold { c: &c, c_i: &c_i },
                LocalRule::FedDyn {
                    alpha: 0.1,
                    lambda_i: &lambda_i,
                },
                LocalRule::Maml {
                    alpha: 0.01,
                    beta: 0.05,
                },
            ];
            let mut jobs = vec![job(&theta, 0), job(&other, 1)];
            // Client 0 has two minibatches an epoch: one MAML pair.
            for (i, (&rule, client)) in rules.iter().zip([2, 1, 0, 2, 0]).enumerate() {
                let start = if i % 2 == 0 { &theta } else { &other };
                jobs.push(LocalJob {
                    rule,
                    ..job(start, client)
                });
            }
            // Each rule's unit is followed by one that trains.
            jobs.extend([job(&theta, 1), job(&other, 3)]);
            assert_eq!(fd.clients[3].train_samples(), 0);
            let resnet = cfg.model == fedclust_nn::models::ModelSpec::ResNet9;
            assert_eq!(template.state_len() > num_params, resnet);
            let upload = 0..theta.len();
            let key = |u: &RemoteUpdate| (u.client, u.steps, bits(&u.state), bits(&u.kept));
            let want: Vec<_> = jobs
                .iter()
                .map(|&j| {
                    let data = &fd.clients[j.client];
                    let fresh = &mut template.clone();
                    key(&run_unit(data, &cfg, fresh, &upload, j, Vec::new()).0)
                })
                .collect();
            // Every unit with data steps, the MAML one included.
            let trains = |&(client, steps, ..): &(usize, usize, _, _)| {
                (steps > 0) == (fd.clients[client].train_samples() > 0)
            };
            assert!(want.iter().all(trains));
            let trainer = InProcessTrainer::new(&fd, &cfg);
            for threads in [1, 2] {
                rayon::set_num_threads(threads);
                let outcome = trainer.train_remote(RemoteRound {
                    upload: upload.clone(),
                    jobs: jobs.clone(),
                    residuals: Vec::new(),
                });
                let got: Vec<_> = outcome.updates.iter().map(key).collect();
                assert_eq!(got, want, "{} at {threads} threads", cfg.model.tag());
            }
            rayon::set_num_threads(1);
        }
    }

    const START: [f32; 4] = [0.5; 4];

    fn job(start_state: &[f32], client: usize) -> LocalJob<'_> {
        LocalJob {
            start_state,
            epochs: 1,
            client,
            round: 0,
            rule: LocalRule::Sgd(None),
        }
    }

    fn remote_round(upload: Range<usize>, clients: &[usize]) -> RemoteRound<'static> {
        RemoteRound {
            upload,
            jobs: clients.iter().map(|&c| job(&START, c)).collect(),
            residuals: Vec::new(),
        }
    }

    fn push(client: u32, weight: f32, body: PushBody) -> Msg {
        Msg::Push {
            mode: 0,
            round: 0,
            client,
            steps: 3,
            weight,
            body,
        }
    }

    /// Client 0 pushes a sound raw upload of the round's slice, client 1
    /// pushes `(weight, body)`.
    fn pushes(req: &RemoteRound, weight: f32, body: PushBody) -> BTreeMap<usize, Msg> {
        let sound = push(0, 2.0, PushBody::Raw(vec![1.0; req.upload.len()]));
        BTreeMap::from([(0, sound), (1, push(1, weight, body))])
    }

    /// Settle a round uploading the slice `upload` in which client 1 pushed
    /// `(weight, body)`, require it written off, and finish the round the
    /// way the driver would.
    fn assert_written_off_in(upload: Range<usize>, weight: f32, body: PushBody) {
        let req = remote_round(upload.clone(), &[0, 1]);
        let outcome = settle(&req, pushes(&req, weight, body), Vec::new());
        assert_eq!(outcome.lost, vec![1]);
        let mut transport = crate::Transport::new(&FlConfig::tiny(7));
        transport.record_remote_losses(&outcome.lost);
        let kept = transport.receive_remote(0, outcome.updates, Some(&START[upload.clone()]));
        let items: Vec<(&[f32], f32)> = kept.iter().map(|u| (&u.state[..], u.weight)).collect();
        assert_eq!(weighted_average(&items), vec![1.0; upload.len()]);
        assert_eq!(transport.telemetry().uplink_losses, 1);
    }

    fn assert_written_off(weight: f32, body: PushBody) {
        assert_written_off_in(0..START.len(), weight, body);
    }

    #[test]
    fn short_raw_state_is_written_off() {
        assert_written_off(2.0, PushBody::Raw(vec![9.0; 3]));
    }

    #[test]
    fn long_codec_decoded_state_is_written_off() {
        let spec = codec::CodecSpec::parse("q8").unwrap();
        let body = PushBody::Encoded {
            wire: spec.encode(&[9.0; 5], None, None, None).wire,
            residual: Vec::new(),
        };
        assert_written_off(2.0, body);
    }

    #[test]
    fn nan_weight_is_written_off() {
        assert_written_off(f32::NAN, PushBody::Raw(vec![9.0; 4]));
    }

    #[test]
    fn infinite_and_negative_weights_are_written_off() {
        assert_written_off(f32::INFINITY, PushBody::Raw(vec![9.0; 4]));
        assert_written_off(-1.0, PushBody::Raw(vec![9.0; 4]));
    }

    /// `fedclustd` only ever hands over `Push` frames; any other kind is
    /// written off, not skipped.
    #[test]
    fn a_frame_that_is_no_push_is_written_off() {
        let req = remote_round(0..START.len(), &[0]);
        let outcome = settle(&req, BTreeMap::from([(0, Msg::PullWork)]), Vec::new());
        assert_eq!((outcome.updates.len(), outcome.lost), (0, vec![0]));
    }

    /// A delta-coded body means nothing without its reference: each is
    /// decoded against its own job's start state, not the batch's first.
    #[test]
    fn an_encoded_body_is_decoded_against_its_own_jobs_state() {
        let spec = codec::CodecSpec::parse("delta+q8").unwrap();
        let starts = [[0.5f32; 4], [-3.0f32; 4]];
        let trained = [[0.75f32, 0.5, 0.25, 0.5], [-2.5f32, -3.0, -3.5, -3.0]];
        let req = RemoteRound {
            upload: 0..4,
            jobs: vec![job(&starts[0], 0), job(&starts[1], 1)],
            residuals: vec![Vec::new(); 2],
        };
        let encoded: Vec<_> = (0..2)
            .map(|i| spec.encode(&trained[i], Some(&starts[i]), None, None))
            .collect();
        let frames = encoded.iter().enumerate().map(|(i, enc)| {
            let body = PushBody::Encoded {
                wire: enc.wire.clone(),
                residual: Vec::new(),
            };
            (i, push(i as u32, 2.0, body))
        });
        let outcome = settle(&req, frames.collect(), Vec::new());
        assert!(outcome.lost.is_empty());
        for (update, enc) in outcome.updates.iter().zip(&encoded) {
            assert_eq!(update.state, enc.decoded, "client {}", update.client);
            assert_eq!(update.wire_bytes, Some(enc.wire.len()));
        }
        assert_ne!(outcome.updates[0].state, outcome.updates[1].state);
    }

    /// A client with no training data pushes weight 0: a valid update that
    /// is received like any other and moves the average by nothing.
    #[test]
    fn zero_weight_is_kept_and_contributes_nothing() {
        let req = remote_round(0..START.len(), &[0, 1]);
        let pushed = pushes(&req, 0.0, PushBody::Raw(vec![9.0; 4]));
        let outcome = settle(&req, pushed, Vec::new());
        assert_eq!(outcome.lost, Vec::<usize>::new());
        let updates = outcome.updates.iter();
        let items: Vec<(&[f32], f32)> = updates.map(|u| (&u.state[..], u.weight)).collect();
        assert_eq!(items.len(), 2);
        assert_eq!(weighted_average_or(&items, &START), vec![1.0; 4]);
    }

    /// A warm-up uploads a slice of the state: its pushes are measured, and
    /// a delta-coded one decoded, against that slice of the start state,
    /// by the rule every push settles by.
    #[test]
    fn a_slice_upload_settles_by_the_same_rule() {
        let slice = 1..3;
        let delta = codec::CodecSpec::parse("delta+q8").unwrap();
        let encoded = |values: &[f32], reference: &[f32]| PushBody::Encoded {
            wire: delta.encode(values, Some(reference), None, None).wire,
            residual: Vec::new(),
        };
        let raw = |len| PushBody::Raw(vec![9.0; len]);
        assert_written_off_in(slice.clone(), 2.0, raw(4));
        assert_written_off_in(slice.clone(), 2.0, raw(1));
        assert_written_off_in(slice.clone(), f32::NAN, raw(2));
        // Coded against the whole state, not the slice: no reference fits.
        assert_written_off_in(slice.clone(), 2.0, encoded(&[9.0; 4], &START));

        // Sound ones come back as the slice, raw or decoded against it.
        let req = remote_round(slice.clone(), &[0, 1]);
        let body = encoded(&[0.75, 0.25], &START[slice]);
        let outcome = settle(&req, pushes(&req, 2.0, body), Vec::new());
        assert!(outcome.lost.is_empty());
        let states = outcome.updates.iter().map(|u| (u.client, u.state.len()));
        assert_eq!(states.collect::<Vec<_>>(), vec![(0, 2), (1, 2)]);
        assert_eq!(outcome.updates[0].wire_bytes, None);
        assert!(outcome.updates[1].wire_bytes.is_some());
    }

    /// A `Work` frame's upload slice is the server's word, so a worker
    /// checks it. Trains a unit of client 1 uploading `upload`; returns
    /// `upload`'s length in the state it pushed, or the error.
    fn train_slice(upload: Range<usize>) -> Result<usize, String> {
        let fd = tiny_fd(8);
        let cfg = FlConfig::tiny(8);
        let mut replica = init_model(&fd, &cfg);
        let start = replica.state_vec();
        match train_unit(&fd, &cfg, &mut replica, upload, job(&start, 1), Vec::new())? {
            Msg::Push {
                body: PushBody::Raw(state),
                ..
            } => Ok(state.len()),
            other => panic!("a raw push, not {other:?}"),
        }
    }

    fn assert_slice_rejected(upload: Range<usize>) {
        let len = init_model(&tiny_fd(8), &FlConfig::tiny(8)).state_len();
        let err = train_slice(upload.clone()).expect_err("must be rejected");
        let expected = format!("upload slice {upload:?} of a state of {len} values");
        assert!(err.contains(&expected), "{err}");
    }

    #[test]
    fn an_upload_slice_that_runs_backwards_is_an_error() {
        assert_slice_rejected(Range { start: 3, end: 2 });
    }

    #[test]
    fn an_upload_slice_past_the_state_is_an_error() {
        let len = init_model(&tiny_fd(8), &FlConfig::tiny(8)).state_len();
        assert_slice_rejected(0..len + 1);
        assert_slice_rejected(len..len + 1);
    }

    /// Where an `offset + len` would wrap: the slice is checked as it came,
    /// without arithmetic on it.
    #[test]
    fn an_upload_slice_at_the_end_of_the_address_space_is_an_error() {
        assert_slice_rejected(2..usize::MAX);
        assert_slice_rejected(usize::MAX..usize::MAX);
    }

    #[test]
    fn an_upload_slice_inside_the_state_trains() {
        let len = init_model(&tiny_fd(8), &FlConfig::tiny(8)).state_len();
        for upload in [0..len, 2..5, len..len] {
            assert_eq!(train_slice(upload.clone()), Ok(upload.len()), "{upload:?}");
        }
    }
}
