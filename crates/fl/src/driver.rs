//! The one federation driver.
//!
//! Algorithm 1 and every baseline in the paper's tables share one
//! skeleton: restore-or-initialise, then per round *train → aggregate →
//! maybe evaluate → maybe checkpoint*, then a final evaluation.
//! [`run_federation`] owns that skeleton exactly once; a method is a
//! [`Method`] impl that supplies only what differs — its server state, one
//! round's update rule, how it evaluates, and what it leaves behind.
//!
//! [`RoundCtx`] is a method's one door to its clients: sampling, every
//! broadcast and every trainer call happen in its methods, so a method's
//! `round` is `RoundCtx` calls plus its own arithmetic. In-process vs
//! networked is a value, not ambient state: the host passes an optional
//! [`RemoteTrainer`], the driver puts an [`InProcessTrainer`] in its place
//! when there is none and carries the one trainer in [`RoundCtx`], and
//! the training batch behind [`RoundCtx::train_groups`] and
//! [`RoundCtx::warm_up`] are the only calls to it.

use crate::checkpoint::{Checkpoint, CheckpointError, Checkpointer, MethodState};
use crate::config::FlConfig;
use crate::engine::{
    average_accuracy, average_updates, init_model, sample_clients, ClientUpdate, InProcessTrainer,
    LocalJob, RemoteRound, RemoteTrainer, RemoteUpdate, MODE_TRAIN, MODE_WARMUP,
};
use crate::faults::Transport;
use crate::metrics::{RoundRecord, RunResult};
use fedclust_data::FederatedDataset;
use fedclust_nn::Model;
use rayon::prelude::*;
use std::collections::BTreeMap;
use std::convert::Infallible;

/// What a method sees of the run it is part of: the federation, the
/// config, the shared model template, the fault-injecting transport (which
/// owns the meter, telemetry and codec residuals), and who trains.
pub struct RoundCtx<'a> {
    /// The federated dataset.
    pub fd: &'a FederatedDataset,
    /// The run configuration.
    pub cfg: &'a FlConfig,
    /// The architecture every replica is cloned from, holding θ⁰.
    pub template: Model,
    /// The server↔client link of this run.
    pub transport: Transport,
    /// Who trains the clients: the worker fleet, or this process.
    pub trainer: &'a dyn RemoteTrainer,
}

impl<'a> RoundCtx<'a> {
    /// The context of a fresh run on `fd` under `cfg`: θ⁰ built from the
    /// run's seed, a transport with nothing metered yet, and `trainer`.
    pub fn new(
        fd: &'a FederatedDataset,
        cfg: &'a FlConfig,
        trainer: &'a dyn RemoteTrainer,
    ) -> Self {
        RoundCtx {
            fd,
            cfg,
            template: init_model(fd, cfg),
            transport: Transport::new(cfg),
            trainer,
        }
    }

    /// One full faulty round trip for the standard skeleton: sample at
    /// `round`, broadcast `start_state` through the transport (charging
    /// every downlink attempt), train the clients that were actually
    /// reached on the run's trainer, then take each update through the
    /// uplink codec + fault + quarantine screen. The broadcast state doubles
    /// as the codec's delta reference. The returned survivor set may be
    /// empty; callers carry the previous model forward then. This is
    /// [`RoundCtx::train_groups`] for a round with one model.
    pub fn train_round(
        &mut self,
        start_state: &[f32],
        round: usize,
        prox_mu: Option<f32>,
    ) -> Vec<ClientUpdate> {
        let sampled = sample_clients(self.fd.num_clients(), self.cfg, round);
        let mut trained = self.train_groups(&[(start_state, &sampled)], round, prox_mu);
        trained.pop().unwrap_or_default()
    }

    /// The round trip of [`RoundCtx::train_round`] for a round with several
    /// models: each group is `(start_state, members)` — non-empty, and no
    /// client in two groups — and comes back as its own survivor set.
    /// Groups share nothing, so all of them train as **one batch**: one
    /// [`RemoteRound`] with every unit in flight, on this process's pool or
    /// over the fleet. Only the training is flattened. Each group is
    /// broadcast, and later received, on its own and in group order — the
    /// liveness rule, the codec reference, the quarantine length and every
    /// `(seed, round, client)` fault stream are per group — so the meter,
    /// telemetry and residuals read exactly as if the groups had taken
    /// turns (down and up bytes accumulate apart, the rest are counters and
    /// a per-client map, so doing every broadcast first moves no byte).
    pub fn train_groups(
        &mut self,
        groups: &[(&[f32], &[usize])],
        round: usize,
        prox_mu: Option<f32>,
    ) -> Vec<Vec<ClientUpdate>> {
        let transport = &mut self.transport;
        let reached = groups
            .iter()
            .map(|&(state, members)| (state, transport.broadcast(round, members, state.len())))
            .collect();
        self.train_reached(reached, round, prox_mu)
    }

    /// [`RoundCtx::train_groups`] after its broadcast: every group is
    /// `(start_state, clients the downlink reached)`, by whatever broadcast
    /// reached them — IFCA's bundle of all k models reaches a client before
    /// it picks the group it trains in.
    pub(crate) fn train_reached(
        &mut self,
        reached: Vec<(&[f32], Vec<usize>)>,
        round: usize,
        prox_mu: Option<f32>,
    ) -> Vec<Vec<ClientUpdate>> {
        let transport = &mut self.transport;
        let job = |start_state, &client| LocalJob {
            start_state,
            epochs: self.cfg.local_epochs,
            client,
            round,
            prox_mu,
        };
        let jobs: Vec<LocalJob> = reached
            .iter()
            .flat_map(|(state, clients)| clients.iter().map(|c| job(*state, c)))
            .collect();
        let residuals = jobs
            .iter()
            .map(|j| transport.residual_for(j.client))
            .collect();
        let outcome = self.trainer.train_remote(RemoteRound {
            mode: MODE_TRAIN,
            jobs,
            residuals,
        });
        // What was delivered is a subsequence of the jobs, which run group
        // by group: each group takes its own off the front.
        let mut updates = outcome.updates.into_iter().peekable();
        let received = reached.iter().map(|(state, clients)| {
            let lost = outcome.lost.iter().copied();
            let lost: Vec<usize> = lost.filter(|c| clients.contains(c)).collect();
            transport.record_remote_losses(&lost);
            let delivered = clients
                .iter()
                .filter_map(|&c| updates.next_if(|u| u.client == c))
                .collect();
            transport.receive_remote(round, delivered, Some(state))
        });
        received.collect()
    }

    /// The sampled clients of each cluster that has any, trained from
    /// `state_of(cluster)` — all clusters in one [`RoundCtx::train_groups`]
    /// batch. `cluster_of` maps a client to its cluster. Returns, clusters
    /// ascending, `(cluster, sampled members, their survivors)`.
    pub fn train_clusters<'s>(
        &mut self,
        round: usize,
        cluster_of: &[usize],
        state_of: impl Fn(usize) -> &'s [f32],
    ) -> Vec<(usize, Vec<usize>, Vec<ClientUpdate>)> {
        let sampled = sample_clients(self.fd.num_clients(), self.cfg, round);
        let members = members_by_cluster(sampled.iter().map(|&c| (c, cluster_of[c])));
        let groups: Vec<(&[f32], &[usize])> = members
            .iter()
            .map(|(&ci, members)| (state_of(ci), &members[..]))
            .collect();
        let trained = self.train_groups(&groups, round, None);
        let members = members.into_iter().zip(trained);
        members.map(|((ci, m), u)| (ci, m, u)).collect()
    }

    /// One round of per-cluster FedAvg (Eq. 2; Algorithm 1 lines 9–14):
    /// [`RoundCtx::train_clusters`] from the cluster models, then average
    /// what survives, cluster by cluster. A cluster with no sampled member,
    /// or whose every upload was lost, quarantined or weightless, carries
    /// its model forward.
    pub fn cluster_round(&mut self, states: &mut [Vec<f32>], labels: &[usize], round: usize) {
        for (ci, _, updates) in self.train_clusters(round, labels, |ci| &states[ci]) {
            states[ci] = average_updates(&updates, &states[ci]);
        }
    }

    /// The round trip for methods that train clients themselves: sample at
    /// `round`, broadcast `down` scalars to each sampled client (charging
    /// every attempt, reaching at least one), and run `work(ctx, client)`
    /// for every client the downlink reached, in one parallel map. Returns
    /// `(client, work)` in client order; uploads go through
    /// [`RoundCtx::upload`].
    pub fn on_clients<T: Send>(
        &mut self,
        round: usize,
        down: usize,
        work: impl Fn(&RoundCtx<'a>, usize) -> T + Sync,
    ) -> Vec<(usize, T)> {
        let sampled = sample_clients(self.fd.num_clients(), self.cfg, round);
        let reached = self.transport.broadcast(round, &sampled, down);
        let ctx = &*self;
        reached.par_iter().map(|&c| (c, work(ctx, c))).collect()
    }

    /// Round 0's warm-up (FedClust, Algorithm 1 lines 2–4): broadcast
    /// `start_state` to every client and train each one the downlink
    /// reached for `epochs` epochs, in one [`MODE_WARMUP`] batch on the
    /// run's trainer. Clients whose trainer wrote them off count as uplink
    /// losses. Returns the delivered raw full states, in client order.
    pub fn warm_up(&mut self, start_state: &[f32], epochs: usize) -> Vec<RemoteUpdate> {
        let everyone: Vec<usize> = (0..self.fd.num_clients()).collect();
        let reached = self.transport.broadcast(0, &everyone, start_state.len());
        let job = |&client| LocalJob {
            start_state,
            epochs,
            client,
            round: 0,
            prox_mu: None,
        };
        let warmed = self.trainer.train_remote(RemoteRound {
            mode: MODE_WARMUP,
            jobs: reached.iter().map(job).collect(),
            residuals: Vec::new(),
        });
        self.transport.record_remote_losses(&warmed.lost);
        warmed.updates
    }

    /// Upload `payload` from `client` for methods that train clients
    /// themselves: through the codec (against `reference`, the state both
    /// ends share, which is also what a stale corruption replays), the
    /// fault model and the quarantine screen. Replaces `payload` with what
    /// the server reconstructs; `false` means it never arrived or was
    /// quarantined.
    pub fn upload(
        &mut self,
        round: usize,
        client: usize,
        payload: &mut Vec<f32>,
        reference: Option<&[f32]>,
    ) -> bool {
        let len = payload.len();
        self.transport
            .uplink(round, client, payload, reference, reference)
            && self.transport.screen(payload, len)
    }
}

/// `(client, cluster)` pairs grouped by cluster: clusters ascending, each
/// with its clients in the order given.
pub(crate) fn members_by_cluster(
    pairs: impl IntoIterator<Item = (usize, usize)>,
) -> BTreeMap<usize, Vec<usize>> {
    let mut members: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (client, cluster) in pairs {
        members.entry(cluster).or_default().push(client);
    }
    members
}

/// A federated method, as the driver sees it: its server state and what
/// differs between methods — how the state starts, changes in a round, is
/// stored, is tested, and what it leaves behind. Resume lookup, the round
/// loop, the evaluation cadence, checkpoint assembly and the [`RunResult`]
/// are the driver's; an impl contains none of them.
pub trait Method {
    /// Display name, matching the paper's tables (e.g. `"FedAvg"`); also
    /// the identity a checkpoint is matched against.
    const NAME: &'static str;
    /// Whether *all* client work goes through [`RoundCtx::train_groups`] —
    /// directly, or as [`RoundCtx::train_round`],
    /// [`RoundCtx::train_clusters`] or [`RoundCtx::cluster_round`] — or,
    /// for a round-0 warm-up, [`RoundCtx::warm_up`], so a worker fleet can
    /// carry it. A method with work in [`RoundCtx::on_clients`], e.g. to
    /// keep per-client state, would silently run it on the server, and
    /// must say `false`.
    const DISTRIBUTES: bool = false;
    /// Whether [`Method::init`] computes one-shot state worth a
    /// checkpoint of its own (generation 0) before any round has run,
    /// whatever the cadence.
    const CHECKPOINT_INIT: bool = false;
    /// The server-side state carried from round to round.
    type State;
    /// What a finished run leaves behind for post-hoc use.
    type Artifacts;

    /// The state a fresh run starts from (may communicate: FedClust's
    /// round 0 lives here).
    fn init(&self, ctx: &mut RoundCtx<'_>) -> Self::State;
    /// Rebuild the state from a checkpoint, validating it against this
    /// run's model and federation.
    fn restore(
        &self,
        ctx: &RoundCtx<'_>,
        saved: MethodState,
    ) -> Result<Self::State, CheckpointError>;
    /// Run communication round `round` (0-based).
    fn round(&self, state: &mut Self::State, ctx: &mut RoundCtx<'_>, round: usize);
    /// The state as a checkpoint stores it. Called only when a checkpoint
    /// is actually written.
    fn snapshot(&self, state: &Self::State) -> MethodState;
    /// Every client's local test accuracy under the current state.
    fn evaluate(&self, state: &Self::State, ctx: &RoundCtx<'_>) -> Vec<f32>;
    /// The number of models the server currently maintains, if meaningful.
    fn num_clusters(&self, state: &Self::State) -> Option<usize>;
    /// Turn the final state into the run's artifacts.
    fn finish(&self, state: Self::State, ctx: RoundCtx<'_>) -> Self::Artifacts;
}

/// Where a run's checkpoints go. The error type is the point: a run
/// without checkpoints ([`NoCheckpoints`]) cannot fail, by type.
pub trait CheckpointSink {
    /// What a resume lookup or a write can fail with.
    type Error;
    /// Look up the checkpoint to resume `(method, seed)` from and map it
    /// through `restore`; `None` starts fresh.
    fn resume<T>(
        &mut self,
        method: &str,
        seed: u64,
        restore: impl FnOnce(Checkpoint) -> Result<T, CheckpointError>,
    ) -> Result<Option<T>, Self::Error>;
    /// Write the post-initialisation generation, if checkpoints are on.
    fn after_init(&mut self, build: impl FnOnce() -> Checkpoint) -> Result<(), Self::Error>;
    /// End-of-round hook: write a generation if one is due. `build` runs
    /// only when something is written.
    fn after_round(
        &mut self,
        round: usize,
        build: impl FnOnce() -> Checkpoint,
    ) -> Result<(), Self::Error>;
}

/// No checkpointing and no resume: every hook is a no-op.
pub struct NoCheckpoints;

impl CheckpointSink for NoCheckpoints {
    type Error = Infallible;
    fn resume<T>(
        &mut self,
        _: &str,
        _: u64,
        _: impl FnOnce(Checkpoint) -> Result<T, CheckpointError>,
    ) -> Result<Option<T>, Infallible> {
        Ok(None)
    }
    fn after_init(&mut self, _: impl FnOnce() -> Checkpoint) -> Result<(), Infallible> {
        Ok(())
    }
    fn after_round(&mut self, _: usize, _: impl FnOnce() -> Checkpoint) -> Result<(), Infallible> {
        Ok(())
    }
}

impl CheckpointSink for &mut Checkpointer {
    type Error = CheckpointError;
    fn resume<T>(
        &mut self,
        method: &str,
        seed: u64,
        restore: impl FnOnce(Checkpoint) -> Result<T, CheckpointError>,
    ) -> Result<Option<T>, CheckpointError> {
        self.resume_point(method, seed)?.map(restore).transpose()
    }
    fn after_init(&mut self, build: impl FnOnce() -> Checkpoint) -> Result<(), CheckpointError> {
        if self.is_enabled() {
            self.save_now(&build())?;
        }
        Ok(())
    }
    fn after_round(
        &mut self,
        round: usize,
        build: impl FnOnce() -> Checkpoint,
    ) -> Result<(), CheckpointError> {
        self.on_round_end(round, build)
    }
}

/// Run `method` on `fd` to `cfg.rounds` rounds and return its telemetry
/// and artifacts.
///
/// `ckpt` is where checkpoints go: [`NoCheckpoints`], which cannot fail,
/// or a `&mut Checkpointer`, which the driver consults for a resume point
/// before round 0, writes a generation to at the cadence it dictates, and
/// continues from **bit-identically** (all engine RNG derives statelessly
/// from `(seed, stream, round, client)`, so a resumed run matches an
/// uninterrupted one byte for byte). `trainer` is the worker fleet local
/// training is farmed out to; `None` trains in process, through an
/// [`InProcessTrainer`].
pub fn run_federation<M: Method, C: CheckpointSink>(
    method: &M,
    fd: &FederatedDataset,
    cfg: &FlConfig,
    mut ckpt: C,
    trainer: Option<&dyn RemoteTrainer>,
) -> Result<(RunResult, M::Artifacts), C::Error> {
    let in_process = InProcessTrainer::new(fd, cfg);
    let mut ctx = RoundCtx::new(fd, cfg, trainer.unwrap_or(&in_process));
    let snapshot =
        |state: &M::State, ctx: &RoundCtx<'_>, next_round, history: &[RoundRecord]| Checkpoint {
            method: M::NAME.to_string(),
            seed: cfg.seed,
            next_round,
            meter: ctx.transport.meter().clone(),
            telemetry: ctx.transport.telemetry(),
            history: history.to_vec(),
            state: method.snapshot(state),
            residuals: ctx.transport.codec_residuals(),
        };

    let resumed = ckpt.resume(M::NAME, cfg.seed, |cp| {
        let state = method.restore(&ctx, cp.state)?;
        ctx.transport
            .restore_comm_state(cp.meter, cp.telemetry, cp.residuals);
        Ok((state, cp.next_round, cp.history))
    })?;
    let (mut state, start_round, mut history) = match resumed {
        Some(resumed) => resumed,
        None => {
            let state = method.init(&mut ctx);
            if M::CHECKPOINT_INIT {
                ckpt.after_init(|| snapshot(&state, &ctx, 0, &[]))?;
            }
            (state, 0, Vec::new())
        }
    };

    let mut last_eval = None;
    for round in start_round..cfg.rounds {
        method.round(&mut state, &mut ctx, round);
        last_eval = cfg
            .should_eval(round)
            .then(|| method.evaluate(&state, &ctx));
        if let Some(per_client) = &last_eval {
            history.push(RoundRecord {
                round: round + 1,
                avg_acc: average_accuracy(per_client),
                cum_mb: ctx.transport.meter().total_mb(),
            });
        }
        ckpt.after_round(round, || snapshot(&state, &ctx, round + 1, &history))?;
    }

    // The last round always evaluates (`FlConfig::should_eval`) and nothing
    // trains after it, so its accuracies are the final ones; only a run in
    // which no round ran here (zero rounds, or resumed at the end) still
    // has to evaluate.
    let per_client_acc = last_eval.unwrap_or_else(|| method.evaluate(&state, &ctx));
    let result = RunResult {
        method: M::NAME.to_string(),
        final_acc: average_accuracy(&per_client_acc),
        per_client_acc,
        history,
        num_clusters: method.num_clusters(&state),
        total_mb: ctx.transport.meter().total_mb(),
        faults: ctx.transport.telemetry(),
    };
    Ok((result, method.finish(state, ctx)))
}

/// A federated learning method that can run a full experiment: the
/// object-safe face of [`Method`] that harnesses and the CLI box.
pub trait FlMethod: Sync {
    /// Display name, matching the paper's tables (e.g. `"FedAvg"`).
    fn name(&self) -> &'static str;

    /// Whether a worker fleet can carry this method's local training
    /// ([`Method::DISTRIBUTES`]).
    fn distributes(&self) -> bool;

    /// Run the method on a federated dataset and return its telemetry.
    fn run(&self, fd: &FederatedDataset, cfg: &FlConfig) -> RunResult;

    /// Run with durable checkpointing (see [`run_federation`]) and local
    /// training on `trainer`'s fleet when one is given.
    fn run_hosted(
        &self,
        fd: &FederatedDataset,
        cfg: &FlConfig,
        ckpt: &mut Checkpointer,
        trainer: Option<&dyn RemoteTrainer>,
    ) -> Result<RunResult, CheckpointError>;
}

impl<M: Method + Sync> FlMethod for M {
    fn name(&self) -> &'static str {
        M::NAME
    }
    fn distributes(&self) -> bool {
        M::DISTRIBUTES
    }
    fn run(&self, fd: &FederatedDataset, cfg: &FlConfig) -> RunResult {
        let Ok((result, _)) = run_federation(self, fd, cfg, NoCheckpoints, None);
        result
    }
    fn run_hosted(
        &self,
        fd: &FederatedDataset,
        cfg: &FlConfig,
        ckpt: &mut Checkpointer,
        trainer: Option<&dyn RemoteTrainer>,
    ) -> Result<RunResult, CheckpointError> {
        Ok(run_federation(self, fd, cfg, ckpt, trainer)?.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::list_generations;
    use crate::engine::weighted_average_or;
    use fedclust_data::{DatasetProfile, Partition};
    use std::sync::atomic::{AtomicUsize, Ordering};

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
    fn train_round_with_total_uplink_loss_carries_model_forward() {
        let fd = tiny_fd(6);
        let mut cfg = FlConfig::tiny(6);
        cfg.faults.uplink_loss = 1.0;
        let trainer = InProcessTrainer::new(&fd, &cfg);
        let mut ctx = RoundCtx::new(&fd, &cfg, &trainer);
        let s = ctx.template.state_vec();
        let kept = ctx.train_groups(&[(&s, &[0, 1, 2])], 0, None).remove(0);
        assert!(kept.is_empty(), "total uplink loss must lose every update");
        let items: Vec<(&[f32], f32)> = kept.iter().map(|u| (&u.state[..], u.weight)).collect();
        assert_eq!(weighted_average_or(&items, &s), s, "model carried forward");
        assert!(ctx.transport.telemetry().uplink_losses >= 3);
    }

    /// Client work runs on exactly the clients the downlink reached — in a
    /// round that missed some — and comes back in client order, and every
    /// downlink attempt, retries and failures included, is billed `down`
    /// scalars.
    #[test]
    fn on_clients_works_on_exactly_the_reached_clients() {
        let fd = tiny_fd(8);
        let mut cfg = FlConfig::tiny(8);
        cfg.sample_rate = 1.0;
        cfg.faults.downlink_loss = 0.6;
        cfg.faults.max_downlink_retries = 1;
        let trainer = InProcessTrainer::new(&fd, &cfg);
        let ctx = || RoundCtx::new(&fd, &cfg, &trainer);
        let down = 7;
        let sampled = |round| sample_clients(fd.num_clients(), &cfg, round);
        let partly_reached = |round| {
            let reached = ctx().transport.broadcast(round, &sampled(round), down);
            (reached.len() >= 2 && reached.len() < sampled(round).len()).then_some((round, reached))
        };
        let (round, reached) = (0..64).find_map(partly_reached).unwrap();

        let mut ctx = ctx();
        let worked_on = std::sync::Mutex::new(Vec::new());
        let worked = ctx.on_clients(round, down, |ctx, client| {
            worked_on.lock().unwrap().push(client);
            ctx.fd.clients[client].train_samples()
        });
        let mut worked_on = worked_on.into_inner().unwrap();
        worked_on.sort_unstable();
        assert_eq!(
            worked_on, reached,
            "work ran on exactly the reached clients"
        );
        let clients: Vec<usize> = worked.iter().map(|&(c, _)| c).collect();
        assert_eq!(clients, reached, "in client order");
        for (c, samples) in worked {
            assert_eq!(
                samples,
                fd.clients[c].train_samples(),
                "client {c}'s own work"
            );
        }
        let attempts = sampled(round).len() + ctx.transport.telemetry().retries;
        let billed = ctx.transport.meter().downlink_bytes();
        assert_eq!(billed, (attempts * down * 4) as f64);
    }

    /// Everything a round trip leaves behind that a later byte could
    /// depend on.
    fn trace(ctx: &RoundCtx<'_>, trained: &[Vec<ClientUpdate>]) -> String {
        format!(
            "{trained:?} {:?} {:?} {:?}",
            ctx.transport.meter(),
            ctx.transport.telemetry(),
            ctx.transport.codec_residuals()
        )
    }

    /// One batch for all groups must leave exactly what the groups taking
    /// turns leave — under a residual-carrying delta codec and every fault
    /// kind, with a group no downlink reached (the liveness rule revives
    /// its first member) and one whose every upload was lost (nothing to
    /// average: its model is carried forward), at one thread and at two.
    #[test]
    fn one_batch_of_groups_equals_the_groups_taking_turns() {
        let fd = FederatedDataset::build(
            DatasetProfile::FmnistLike,
            Partition::LabelSkew { fraction: 0.2 },
            &fedclust_data::federated::FederatedConfig {
                num_clients: 16,
                samples_per_class: 20,
                seed: 9,
            },
        );
        let mut cfg = FlConfig::tiny(9);
        cfg.codec = crate::CodecSpec::parse("delta+topk:0.1").unwrap();
        cfg.faults.downlink_loss = 0.4;
        cfg.faults.uplink_loss = 0.4;
        cfg.faults.corruption_rate = 0.2;
        let trainer = InProcessTrainer::new(&fd, &cfg);
        let ctx = || RoundCtx::new(&fd, &cfg, &trainer);
        let theta = ctx().template.state_vec();

        // Every client's fate at a round hangs on `(seed, round, client)`
        // alone: read it off a probe round over everybody, and take the
        // first round that has two clients of every fate.
        let everyone: Vec<usize> = (0..fd.num_clients()).collect();
        let fates = |round| {
            let mut probe = ctx();
            let reached = probe.transport.broadcast(round, &everyone, theta.len());
            let arrived = probe
                .train_groups(&[(&theta, &reached)], round, None)
                .remove(0);
            let arrived = |c: &usize| arrived.iter().any(|u| u.client == *c);
            let (unreached, rest): (Vec<usize>, Vec<usize>) =
                everyone.iter().partition(|c| !reached.contains(c));
            let (heard, unheard): (Vec<usize>, Vec<usize>) = rest.iter().partition(|c| arrived(c));
            let fates = [unreached, unheard, heard];
            fates.iter().all(|f| f.len() >= 2).then_some((round, fates))
        };
        let (round, [unreached, unheard, heard]) = (0..64).find_map(fates).unwrap();

        // Three models, so three codec references and corruption fallbacks.
        let scaled = |by: f32| theta.iter().map(|v| v * by).collect::<Vec<f32>>();
        let states = [theta.clone(), scaled(0.5), scaled(-1.0)];
        let groups = [
            (&states[0][..], &unreached[..]),
            (&states[1][..], &unheard[..]),
            (&states[2][..], &heard[..]),
        ];
        // Two rounds, so the second encodes from the first's residuals.
        let rounds = [round, round + 1];
        let mut traces = Vec::new();
        for threads in [1, 2] {
            rayon::set_num_threads(threads);
            let (mut batch, mut turns) = (ctx(), ctx());
            for r in rounds {
                let together = batch.train_groups(&groups, r, None);
                let in_turn: Vec<_> = groups
                    .iter()
                    .map(|&group| turns.train_groups(&[group], r, None).remove(0))
                    .collect();
                if r == round {
                    let clients = |g: &Vec<ClientUpdate>| g.iter().map(|u| u.client).collect();
                    let survivors: Vec<Vec<usize>> = together.iter().map(clients).collect();
                    assert!(survivors[0].iter().all(|c| *c == unreached[0]));
                    assert!(survivors[1].is_empty(), "every upload of group 1 is lost");
                    assert_eq!(average_updates(&together[1], &states[1]), states[1]);
                    assert_eq!(survivors[2], heard);
                }
                traces.push((trace(&batch, &together), trace(&turns, &in_turn)));
            }
        }
        rayon::set_num_threads(1);
        for (batch, turns) in &traces {
            assert_eq!(batch, turns);
        }
        let (one, two) = traces.split_at(rounds.len());
        assert_eq!(one, two, "threads 1 vs 2");
    }

    /// A method that does nothing but count: rounds run, snapshots built,
    /// evaluations made. With `SNAPSHOTS` false, building a snapshot is a
    /// test failure.
    struct Probe<const INIT: bool, const SNAPSHOTS: bool> {
        snapshots: AtomicUsize,
        evaluations: AtomicUsize,
    }

    impl<const INIT: bool, const SNAPSHOTS: bool> Probe<INIT, SNAPSHOTS> {
        fn new() -> Self {
            Probe {
                snapshots: AtomicUsize::new(0),
                evaluations: AtomicUsize::new(0),
            }
        }
    }

    impl<const INIT: bool, const SNAPSHOTS: bool> Method for Probe<INIT, SNAPSHOTS> {
        const NAME: &'static str = "Probe";
        const CHECKPOINT_INIT: bool = INIT;
        type State = usize;
        type Artifacts = usize;

        fn init(&self, _: &mut RoundCtx<'_>) -> usize {
            0
        }
        fn restore(&self, _: &RoundCtx<'_>, saved: MethodState) -> Result<usize, CheckpointError> {
            match saved {
                MethodState::Global { state } => Ok(state.len()),
                other => Err(crate::checkpoint::wrong_state(Self::NAME, &other)),
            }
        }
        fn round(&self, rounds_run: &mut usize, _: &mut RoundCtx<'_>, round: usize) {
            assert_eq!(*rounds_run, round, "rounds run in order, each once");
            *rounds_run += 1;
        }
        fn snapshot(&self, rounds_run: &usize) -> MethodState {
            assert!(SNAPSHOTS, "snapshot() built with nowhere to write it");
            self.snapshots.fetch_add(1, Ordering::Relaxed);
            MethodState::Global {
                state: vec![0.0; *rounds_run],
            }
        }
        fn evaluate(&self, _: &usize, ctx: &RoundCtx<'_>) -> Vec<f32> {
            self.evaluations.fetch_add(1, Ordering::Relaxed);
            vec![0.5; ctx.fd.num_clients()]
        }
        fn num_clusters(&self, _: &usize) -> Option<usize> {
            None
        }
        fn finish(&self, rounds_run: usize, _: RoundCtx<'_>) -> usize {
            rounds_run
        }
    }

    #[test]
    fn snapshot_is_never_built_when_nothing_will_be_written() {
        let fd = tiny_fd(1);
        let mut cfg = FlConfig::tiny(1);
        cfg.rounds = 4;
        // Neither the post-init snapshot nor any per-round one, under a
        // disabled checkpointer and under no checkpointer at all.
        let probe = Probe::<true, false>::new();
        let mut off = Checkpointer::disabled();
        let (result, rounds_run) = run_federation(&probe, &fd, &cfg, &mut off, None).unwrap();
        assert_eq!(rounds_run, 4);
        assert_eq!(result.history.len(), 4, "tiny evaluates every round");
        let Ok((plain, _)) = run_federation(&probe, &fd, &cfg, NoCheckpoints, None);
        assert_eq!(plain, result);
    }

    #[test]
    fn the_final_evaluation_is_the_last_rounds() {
        let fd = tiny_fd(3);
        let mut cfg = FlConfig::tiny(3);
        let evaluations = |cfg: &FlConfig| {
            let probe = Probe::<false, false>::new();
            let Ok((result, _)) = run_federation(&probe, &fd, cfg, NoCheckpoints, None);
            assert_eq!(result.per_client_acc, vec![0.5; fd.num_clients()]);
            (
                probe.evaluations.load(Ordering::Relaxed),
                result.history.len(),
            )
        };
        // One evaluation per evaluated round, none on top for the result.
        cfg.rounds = 4;
        assert_eq!(evaluations(&cfg), (4, 4));
        // Rounds 2, 4 and — being the last — 5.
        (cfg.rounds, cfg.eval_every) = (5, 2);
        assert_eq!(evaluations(&cfg), (3, 3));
        // No round ran: the result still needs its accuracies.
        cfg.rounds = 0;
        assert_eq!(evaluations(&cfg), (1, 0));
    }

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("fedclust-driver-{}-{}", tag, std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn generations(dir: &std::path::Path) -> Vec<usize> {
        let listed = list_generations(dir).unwrap();
        listed.iter().map(|&(g, _)| g).collect()
    }

    #[test]
    fn snapshots_are_built_exactly_once_per_generation_written() {
        let fd = tiny_fd(2);
        let mut cfg = FlConfig::tiny(2);
        cfg.rounds = 4;

        // CHECKPOINT_INIT: generation 0 whatever the cadence, then the cadence.
        let dir = tmp_dir("init");
        let probe = Probe::<true, true>::new();
        let mut ckpt = Checkpointer::new(&dir).every(2).keep(8);
        run_federation(&probe, &fd, &cfg, &mut ckpt, None).unwrap();
        assert_eq!(generations(&dir), vec![0, 2, 4]);
        assert_eq!(probe.snapshots.load(Ordering::Relaxed), 3);

        // Resuming at the end runs no round and evaluates exactly once.
        let before = probe.evaluations.load(Ordering::Relaxed);
        let mut ckpt = Checkpointer::new(&dir).every(2).keep(8).resume(true);
        let (_, rounds_run) = run_federation(&probe, &fd, &cfg, &mut ckpt, None).unwrap();
        assert_eq!(rounds_run, 4, "restored, not re-run");
        assert_eq!(probe.evaluations.load(Ordering::Relaxed) - before, 1);

        // Resuming from generation 2 runs rounds 2 and 3 only (the probe
        // asserts the order) and re-initialises nothing.
        std::fs::remove_file(dir.join(crate::checkpoint::generation_file(4))).unwrap();
        let mut ckpt = Checkpointer::new(&dir).every(2).keep(8).resume(true);
        let (_, rounds_run) = run_federation(&probe, &fd, &cfg, &mut ckpt, None).unwrap();
        assert_eq!(rounds_run, 4);
        assert_eq!(generations(&dir), vec![0, 2, 4]);
        let _ = std::fs::remove_dir_all(&dir);

        // Without it: no generation 0.
        let dir = tmp_dir("no-init");
        let probe = Probe::<false, true>::new();
        let mut ckpt = Checkpointer::new(&dir).every(2).keep(8);
        run_federation(&probe, &fd, &cfg, &mut ckpt, None).unwrap();
        assert_eq!(generations(&dir), vec![2, 4]);
        assert_eq!(probe.snapshots.load(Ordering::Relaxed), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
