//! Shared round machinery: model initialisation, deterministic client
//! sampling, local training, weighted aggregation, and all-client
//! evaluation.
//!
//! Every method implementation composes these primitives; they are the
//! "FedAvg skeleton" the paper's Algorithm 1 shares with its baselines.

use crate::codec::{self, CodecSpec};
use crate::config::FlConfig;
use fedclust_data::{ClientData, FederatedDataset};
use fedclust_nn::loss::cross_entropy;
use fedclust_nn::optim::{Sgd, SgdConfig};
use fedclust_nn::Model;
use fedclust_proto::{Msg, PushBody};
pub use fedclust_proto::{MODE_TRAIN, MODE_WARMUP};
use fedclust_tensor::rng::{derive, streams};
use rand::seq::SliceRandom;
use rayon::prelude::*;
use std::collections::BTreeMap;

/// One batch of training: every unit a round (or FedClust's warm-up)
/// trains, all in flight at once. A unit is a [`LocalJob`] and carries its
/// own start state — a clustered round's units start from as many states as
/// there are sampled clusters — which is also the reference its upload is
/// decoded and length-checked against. The fleet names a unit by `(round,
/// client)`, so a client appears in at most one job of a batch.
pub struct RemoteRound<'a> {
    /// [`MODE_TRAIN`], or [`MODE_WARMUP`] for FedClust's round 0, whose
    /// uploads are always raw full states: the server extracts the
    /// partial weights and runs its own uplink path over them.
    pub mode: u8,
    /// The units, in the order results must come back. Jobs that share a
    /// start state share the slice, so a trainer can tell by address.
    pub jobs: Vec<LocalJob<'a>>,
    /// Each job's canonical error-feedback residual for the trainer-side
    /// codec, aligned with `jobs` (empty vectors for residual-free codecs);
    /// empty altogether for a warm-up, which encodes nothing.
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
    /// Train `req.jobs` in `req.mode`, all at once, and return what was
    /// delivered, as [`settle`] reads it.
    fn train_remote(&self, req: RemoteRound) -> RemoteOutcome;
}

/// The fleet without the sockets: every unit trains on this process's pool
/// through the unit body a worker runs, and none is lost. Like a worker, it
/// builds its own template.
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
    /// carries for it.
    fn train_remote(&self, req: RemoteRound) -> RemoteOutcome {
        let residuals = req
            .residuals
            .into_iter()
            .chain(std::iter::repeat(Vec::new()));
        let units: Vec<(LocalJob, Vec<f32>)> = req.jobs.iter().copied().zip(residuals).collect();
        let updates = units.into_par_iter().map(|(job, residual)| {
            let data = &self.fd.clients[job.client];
            run_unit(data, self.cfg, &self.template, req.mode, job, residual).0
        });
        RemoteOutcome {
            updates: updates.collect(),
            lost: Vec::new(),
        }
    }
}

/// One unit, as a worker and [`InProcessTrainer`] both run it: train `job`
/// on `data`, then send the state through the client half of the upload
/// ([`codec::upload`]) — raw for a warm-up, whose partial weights the
/// server slices out and uploads itself. Returns the update and its wire
/// message, if it was encoded.
fn run_unit(
    data: &ClientData,
    cfg: &FlConfig,
    template: &Model,
    mode: u8,
    job: LocalJob,
    residual: Vec<f32>,
) -> (RemoteUpdate, Option<Vec<u8>>) {
    let (model, steps) = train_replica(template, data, cfg, job);
    let spec = match mode {
        MODE_WARMUP => CodecSpec::none(),
        _ => cfg.codec,
    };
    let (state, wire, residual) = codec::upload(
        spec,
        cfg.seed,
        job.round,
        job.client,
        model.state_vec(),
        Some(job.start_state),
        residual,
    );
    let update = RemoteUpdate {
        client: job.client,
        steps,
        weight: data.train_samples() as f32,
        state,
        wire_bytes: wire.as_ref().map(Vec::len),
        residual,
    };
    (update, wire)
}

/// One client's local training: `epochs` epochs of the run's SGD from
/// `start_state` (with FedProx's proximal term when `prox_mu` is set), its
/// minibatches drawn from [`local_train`]'s `(client, round)` stream.
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
    /// FedProx proximal coefficient, when the method uses one.
    pub prox_mu: Option<f32>,
}

/// The worker's half of one [`RemoteRound`] unit: the unit body
/// [`InProcessTrainer`] runs too, in a `Push` frame. A unit this side
/// cannot train — a client `fd` does not have, a state `template` has no
/// room for: a server built from another commit, or a hostile peer — is an
/// error, never a panic. A residual of any length is trainable: the codec
/// discards one of a stale shape, and FedClust's first full-state round
/// legitimately carries the warm-up's partial-weight one.
pub fn train_unit(
    fd: &FederatedDataset,
    cfg: &FlConfig,
    template: &Model,
    mode: u8,
    job: LocalJob,
    residual: Vec<f32>,
) -> Result<Msg, String> {
    let (clients, state_len) = (fd.num_clients(), template.state_len());
    if job.client >= clients || job.start_state.len() != state_len {
        return Err(format!(
            "server sent client {} with a state of {} values, \
             but the dataset has {clients} clients and the model {state_len} values",
            job.client,
            job.start_state.len(),
        ));
    }
    let (update, wire) = run_unit(&fd.clients[job.client], cfg, template, mode, job, residual);
    let body = match wire {
        Some(wire) => PushBody::Encoded {
            wire,
            residual: update.residual.unwrap_or_default(),
        },
        None => PushBody::Raw(update.state),
    };
    Ok(Msg::Push {
        mode,
        round: job.round as u32,
        client: job.client as u32,
        steps: update.steps as u32,
        weight: update.weight,
        body,
    })
}

/// What the server makes of the frame pushed for `job`: its update, or
/// `None` for one to write off. A frame that passed every checksum can
/// still be no `Push`, be run in another mode than `round_mode`, carry a
/// body that does not fit the mode (only a training unit may be
/// codec-encoded) or cannot be decoded against the job's own start state, a
/// state (raw or decoded) of another length than the server sent *that*
/// job, or a negative or non-finite weight — a worker-side bug or a hostile
/// peer — and the aggregation arithmetic downstream assumes none of it.
/// Weight zero is valid: it is the client's training-set size (Eq. 2), and
/// an in-process client with no data uploads exactly that: received,
/// billed, contributing nothing.
fn read_push(round_mode: u8, job: &LocalJob, frame: Msg) -> Option<RemoteUpdate> {
    let Msg::Push {
        mode,
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
        PushBody::Encoded { wire, residual } if round_mode == MODE_TRAIN => (
            codec::decode(&wire, Some(job.start_state)).ok()?,
            Some(wire.len()),
            (!residual.is_empty()).then_some(residual),
        ),
        PushBody::Encoded { .. } => return None,
    };
    let sized = mode == round_mode && state.len() == job.start_state.len();
    (sized && weight.is_finite() && weight >= 0.0).then_some(RemoteUpdate {
        client: job.client,
        steps: steps as usize,
        weight,
        state,
        wire_bytes,
        residual,
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
            .map(|f| read_push(req.mode, job, f))
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
pub(crate) fn epoch_batches<'a>(
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
    model.set_state_vec(job.start_state);
    let mut opt = Sgd::new(cfg.sgd());
    if let Some(mu) = job.prox_mu {
        opt.set_prox(mu, model.param_tensors());
    }
    let steps = local_train(
        &mut model, data, &mut opt, job.epochs, cfg, job.client, job.round,
    );
    (model, steps)
}

/// [`local_train`] for methods that correct the gradient themselves
/// (SCAFFOLD's control variates, FedDyn's dynamic regularizer): plain SGD
/// where parameter `i` (flat index) steps by `w ← w − lr·correct(i, w, g)`.
/// Same minibatch stream as [`local_train`]; returns the steps taken.
pub fn local_train_corrected(
    model: &mut Model,
    data: &ClientData,
    cfg: &FlConfig,
    client: usize,
    round: usize,
    correct: impl Fn(usize, f32, f32) -> f32,
) -> usize {
    let mut steps = 0;
    for batch in epoch_batches(data, cfg, cfg.local_epochs, client, round).flatten() {
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
                prox_mu,
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
/// vector for client `i` provided by `state_of(i)`.
pub fn evaluate_clients<'a, F>(fd: &FederatedDataset, template: &Model, state_of: F) -> Vec<f32>
where
    F: Fn(usize) -> &'a [f32] + Sync,
{
    evaluate_models(fd, |client| {
        let mut model = template.clone();
        model.set_state_vec(state_of(client));
        model
    })
}

/// [`evaluate_clients`] for methods whose per-client model is more than a
/// state lookup (chosen by loss, personalized first): `model_of(i)` builds
/// the model client `i` is tested with.
pub fn evaluate_models(
    fd: &FederatedDataset,
    model_of: impl Fn(usize) -> Model + Sync,
) -> Vec<f32> {
    (0..fd.num_clients())
        .into_par_iter()
        .map(|client| test_accuracy(&mut model_of(client), &fd.clients[client]))
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

    const START: [f32; 4] = [0.5; 4];

    fn job(start_state: &[f32], client: usize) -> LocalJob<'_> {
        LocalJob {
            start_state,
            epochs: 1,
            client,
            round: 0,
            prox_mu: None,
        }
    }

    fn remote_round(mode: u8, clients: &[usize]) -> RemoteRound<'static> {
        RemoteRound {
            mode,
            jobs: clients.iter().map(|&c| job(&START, c)).collect(),
            residuals: Vec::new(),
        }
    }

    fn push(client: u32, mode: u8, weight: f32, body: PushBody) -> Msg {
        Msg::Push {
            mode,
            round: 0,
            client,
            steps: 3,
            weight,
            body,
        }
    }

    /// Client 0 pushes a sound update in the round's mode, client 1 pushes
    /// `(mode, weight, body)`.
    fn pushes(req: &RemoteRound, mode: u8, weight: f32, body: PushBody) -> BTreeMap<usize, Msg> {
        let sound = push(0, req.mode, 2.0, PushBody::Raw(vec![1.0; 4]));
        BTreeMap::from([(0, sound), (1, push(1, mode, weight, body))])
    }

    /// Settle a round of `round_mode` in which client 1 pushed `(mode,
    /// weight, body)`, require it written off, and finish the round the way
    /// the driver would.
    fn assert_written_off_in(round_mode: u8, mode: u8, weight: f32, body: PushBody) {
        let req = remote_round(round_mode, &[0, 1]);
        let outcome = settle(&req, pushes(&req, mode, weight, body), Vec::new());
        assert_eq!(outcome.lost, vec![1]);
        let mut transport = crate::Transport::new(&FlConfig::tiny(7));
        transport.record_remote_losses(&outcome.lost);
        let kept = transport.receive_remote(0, outcome.updates, Some(&START));
        let items: Vec<(&[f32], f32)> = kept.iter().map(|u| (&u.state[..], u.weight)).collect();
        assert_eq!(weighted_average(&items), vec![1.0; 4]);
        assert_eq!(transport.telemetry().uplink_losses, 1);
    }

    fn assert_written_off(mode: u8, weight: f32, body: PushBody) {
        assert_written_off_in(MODE_TRAIN, mode, weight, body);
    }

    #[test]
    fn short_raw_state_is_written_off() {
        assert_written_off(MODE_TRAIN, 2.0, PushBody::Raw(vec![9.0; 3]));
    }

    #[test]
    fn long_codec_decoded_state_is_written_off() {
        let spec = codec::CodecSpec::parse("q8").unwrap();
        let body = PushBody::Encoded {
            wire: spec.encode(&[9.0; 5], None, None, None).wire,
            residual: Vec::new(),
        };
        assert_written_off(MODE_TRAIN, 2.0, body);
    }

    #[test]
    fn nan_weight_is_written_off() {
        assert_written_off(MODE_TRAIN, f32::NAN, PushBody::Raw(vec![9.0; 4]));
    }

    #[test]
    fn infinite_and_negative_weights_are_written_off() {
        assert_written_off(MODE_TRAIN, f32::INFINITY, PushBody::Raw(vec![9.0; 4]));
        assert_written_off(MODE_TRAIN, -1.0, PushBody::Raw(vec![9.0; 4]));
    }

    /// A sound body pushed in another mode than its unit was leased in.
    #[test]
    fn push_in_the_wrong_mode_is_written_off() {
        assert_written_off(MODE_WARMUP, 2.0, PushBody::Raw(vec![9.0; 4]));
    }

    /// `fedclustd` only ever hands over `Push` frames; any other kind is
    /// written off, not skipped.
    #[test]
    fn a_frame_that_is_no_push_is_written_off() {
        let req = remote_round(MODE_TRAIN, &[0]);
        let outcome = settle(&req, BTreeMap::from([(0, Msg::PullWork)]), Vec::new());
        assert_eq!((outcome.updates.len(), outcome.lost), (0, vec![0]));
    }

    /// A batch whose units start from states of different lengths: each
    /// push is measured against its own job's state, so one that would fit
    /// its neighbour's is written off all the same.
    #[test]
    fn a_state_sized_for_another_job_is_written_off() {
        let other = [0.25f32; 6];
        let req = RemoteRound {
            mode: MODE_TRAIN,
            jobs: vec![job(&START, 0), job(&other, 1)],
            residuals: Vec::new(),
        };
        let raw = |client, len| push(client, MODE_TRAIN, 2.0, PushBody::Raw(vec![1.0; len]));
        let sound = settle(
            &req,
            BTreeMap::from([(0, raw(0, 4)), (1, raw(1, 6))]),
            vec![],
        );
        let lens = sound.updates.iter().map(|u| (u.client, u.state.len()));
        assert_eq!(lens.collect::<Vec<_>>(), vec![(0, 4), (1, 6)]);
        assert!(sound.lost.is_empty());
        let swapped = settle(
            &req,
            BTreeMap::from([(0, raw(0, 6)), (1, raw(1, 4))]),
            vec![],
        );
        assert_eq!((swapped.updates.len(), swapped.lost), (0, vec![0, 1]));
    }

    /// A delta-coded body means nothing without its reference: each is
    /// decoded against its own job's start state, not the batch's first.
    #[test]
    fn an_encoded_body_is_decoded_against_its_own_jobs_state() {
        let spec = codec::CodecSpec::parse("delta+q8").unwrap();
        let starts = [[0.5f32; 4], [-3.0f32; 4]];
        let trained = [[0.75f32, 0.5, 0.25, 0.5], [-2.5f32, -3.0, -3.5, -3.0]];
        let req = RemoteRound {
            mode: MODE_TRAIN,
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
            (i, push(i as u32, MODE_TRAIN, 2.0, body))
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
        let req = remote_round(MODE_TRAIN, &[0, 1]);
        let pushed = pushes(&req, MODE_TRAIN, 0.0, PushBody::Raw(vec![9.0; 4]));
        let outcome = settle(&req, pushed, Vec::new());
        assert_eq!(outcome.lost, Vec::<usize>::new());
        let updates = outcome.updates.iter();
        let items: Vec<(&[f32], f32)> = updates.map(|u| (&u.state[..], u.weight)).collect();
        assert_eq!(items.len(), 2);
        assert_eq!(weighted_average_or(&items, &START), vec![1.0; 4]);
    }

    /// Warm-up uploads are raw full states of the broadcast length with a
    /// sound weight, pushed in warm-up mode; anything else is written off
    /// and counted like a training push would be.
    #[test]
    fn warmup_settles_by_the_same_rule() {
        let q8 = codec::CodecSpec::parse("q8").unwrap();
        let encoded = PushBody::Encoded {
            wire: q8.encode(&[9.0; 4], None, None, None).wire,
            residual: Vec::new(),
        };
        let raw = |len| PushBody::Raw(vec![9.0; len]);
        assert_written_off_in(MODE_WARMUP, MODE_WARMUP, 2.0, raw(5));
        assert_written_off_in(MODE_WARMUP, MODE_WARMUP, f32::NAN, raw(4));
        assert_written_off_in(MODE_WARMUP, MODE_WARMUP, 2.0, encoded);
        assert_written_off_in(MODE_WARMUP, MODE_TRAIN, 2.0, raw(4));

        // A sound one comes back as the raw state, billed per scalar.
        let req = remote_round(MODE_WARMUP, &[0, 1]);
        let outcome = settle(&req, pushes(&req, MODE_WARMUP, 2.0, raw(4)), Vec::new());
        assert!(outcome.lost.is_empty());
        let states = outcome.updates.iter().map(|u| (u.client, &u.state[..]));
        assert_eq!(
            states.collect::<Vec<_>>(),
            vec![(0, &[1.0; 4][..]), (1, &[9.0; 4][..])]
        );
        let billing = |u: &RemoteUpdate| u.wire_bytes.is_none() && u.residual.is_none();
        assert!(outcome.updates.iter().all(billing));
    }
}
