//! The one federation driver.
//!
//! Algorithm 1 and every baseline in the paper's tables share one
//! skeleton: restore-or-initialise, then per round *train → aggregate →
//! maybe evaluate → maybe checkpoint*, then a final evaluation.
//! [`run_federation`] owns that skeleton exactly once; a method is a
//! [`Method`] impl that supplies only what differs — its server state, one
//! round's update rule, how it evaluates, and what it leaves behind.
//!
//! In-process vs networked is a value, not ambient state: the host passes
//! an optional [`RemoteTrainer`], the driver carries it in [`RoundCtx`], and
//! [`RoundCtx::train_round`] (plus FedClust's warm-up) is the only place
//! that consults it.

use crate::checkpoint::{Checkpoint, CheckpointError, Checkpointer, MethodState};
use crate::config::FlConfig;
use crate::engine::{
    average_accuracy, average_updates, init_model, sample_clients, train_sampled, ClientUpdate,
    RemoteRound, RemoteTrainer, MODE_TRAIN,
};
use crate::faults::Transport;
use crate::metrics::{RoundRecord, RunResult};
use fedclust_data::FederatedDataset;
use fedclust_nn::Model;
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
    /// The worker fleet, when local training is farmed out.
    pub trainer: Option<&'a dyn RemoteTrainer>,
}

impl RoundCtx<'_> {
    /// One full faulty round trip for the standard skeleton: broadcast
    /// `start_state` through the transport (charging every downlink
    /// attempt), train the clients that were actually reached — on the
    /// worker fleet when there is one — then push each update through the
    /// uplink codec + fault + quarantine screen. The broadcast state
    /// doubles as the codec's delta reference. The returned survivor set
    /// may be empty; callers carry the previous model forward then.
    pub fn train_round(
        &mut self,
        start_state: &[f32],
        sampled: &[usize],
        round: usize,
        prox_mu: Option<f32>,
    ) -> Vec<ClientUpdate> {
        let transport = &mut self.transport;
        let reached = transport.broadcast(round, sampled, start_state.len());
        let Some(remote) = self.trainer else {
            let updates = train_sampled(
                self.fd,
                self.cfg,
                &self.template,
                start_state,
                &reached,
                round,
                prox_mu,
            );
            return transport.receive(round, updates, Some(start_state), Some(start_state));
        };
        let residuals = reached
            .iter()
            .map(|&c| (c, transport.residual_for(c)))
            .collect();
        let outcome = remote.train_remote(RemoteRound {
            mode: MODE_TRAIN,
            round,
            clients: &reached,
            start_state,
            prox_mu,
            epochs: self.cfg.local_epochs,
            residuals,
        });
        transport.record_remote_losses(&outcome.lost);
        transport.receive_remote(round, outcome.updates, Some(start_state))
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

    /// One round of per-cluster FedAvg (Eq. 2; Algorithm 1 lines 9–14):
    /// sample at `round`, and for each cluster train its sampled members
    /// from the cluster model and average what survives. A cluster with no
    /// sampled member, or whose every upload was lost, quarantined or
    /// weightless, carries its model forward.
    pub fn cluster_round(&mut self, states: &mut [Vec<f32>], labels: &[usize], round: usize) {
        let sampled = sample_clients(self.fd.num_clients(), self.cfg, round);
        for (ci, state) in states.iter_mut().enumerate() {
            let members: Vec<usize> = sampled
                .iter()
                .copied()
                .filter(|&c| labels[c] == ci)
                .collect();
            if members.is_empty() {
                continue;
            }
            let updates = self.train_round(state, &members, round, None);
            *state = average_updates(&updates, state);
        }
    }
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
    /// Whether *all* local training goes through
    /// [`RoundCtx::train_round`] (or, for a round-0 warm-up, the
    /// [`RemoteTrainer`] directly), so a worker fleet can carry it. A
    /// method that trains clients itself, e.g. to keep per-client state,
    /// would silently train on the server, and must say `false`.
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
/// training is farmed out to; `None` trains in process.
pub fn run_federation<M: Method, C: CheckpointSink>(
    method: &M,
    fd: &FederatedDataset,
    cfg: &FlConfig,
    mut ckpt: C,
    trainer: Option<&dyn RemoteTrainer>,
) -> Result<(RunResult, M::Artifacts), C::Error> {
    let mut ctx = RoundCtx {
        fd,
        cfg,
        template: init_model(fd, cfg),
        transport: Transport::new(cfg),
        trainer,
    };
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

    for round in start_round..cfg.rounds {
        method.round(&mut state, &mut ctx, round);
        if cfg.should_eval(round) {
            let per_client = method.evaluate(&state, &ctx);
            history.push(RoundRecord {
                round: round + 1,
                avg_acc: average_accuracy(&per_client),
                cum_mb: ctx.transport.meter().total_mb(),
            });
        }
        ckpt.after_round(round, || snapshot(&state, &ctx, round + 1, &history))?;
    }

    let per_client_acc = method.evaluate(&state, &ctx);
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

    /// [`FlMethod::run_hosted`] in process.
    fn run_resumable(
        &self,
        fd: &FederatedDataset,
        cfg: &FlConfig,
        ckpt: &mut Checkpointer,
    ) -> Result<RunResult, CheckpointError> {
        self.run_hosted(fd, cfg, ckpt, None)
    }
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
                train_fraction: 0.8,
                seed,
            },
        )
    }

    #[test]
    fn train_round_with_total_uplink_loss_carries_model_forward() {
        let fd = tiny_fd(6);
        let mut cfg = FlConfig::tiny(6);
        cfg.faults.uplink_loss = 1.0;
        let mut ctx = RoundCtx {
            fd: &fd,
            cfg: &cfg,
            template: init_model(&fd, &cfg),
            transport: Transport::new(&cfg),
            trainer: None,
        };
        let s = ctx.template.state_vec();
        let kept = ctx.train_round(&s, &[0, 1, 2], 0, None);
        assert!(kept.is_empty(), "total uplink loss must lose every update");
        let items: Vec<(&[f32], f32)> = kept.iter().map(|u| (&u.state[..], u.weight)).collect();
        assert_eq!(weighted_average_or(&items, &s), s, "model carried forward");
        assert!(ctx.transport.telemetry().uplink_losses >= 3);
    }

    /// A method that does nothing but count: rounds run, snapshots built.
    /// With `SNAPSHOTS` false, building a snapshot is a test failure.
    struct Probe<const INIT: bool, const SNAPSHOTS: bool> {
        snapshots: AtomicUsize,
    }

    impl<const INIT: bool, const SNAPSHOTS: bool> Probe<INIT, SNAPSHOTS> {
        fn new() -> Self {
            Probe {
                snapshots: AtomicUsize::new(0),
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
