//! The single-global-model baselines: FedAvg, FedProx, FedNova.
//!
//! All three share the FedAvg skeleton (sample → local train → aggregate)
//! and differ only in the local objective (FedProx's proximal term) or the
//! aggregation rule (FedNova's normalised averaging), so they share one
//! [`Method`] impl and each is just a [`Global`] impl: a name, a μ, an
//! aggregation function.

use crate::checkpoint::{check_len, wrong_state, CheckpointError, MethodState};
use crate::driver::{Method, RoundCtx};
use crate::engine::{average_updates, evaluate_clients, weighted_average, ClientUpdate, LocalRule};

/// A member of the FedAvg family: one global model, trained by the
/// standard round trip and replaced each round by [`Global::aggregate`].
pub trait Global: Sync {
    /// Display name (see [`Method::NAME`]).
    const NAME: &'static str;
    /// Proximal coefficient μ of the local objective, if any.
    fn prox_mu(&self) -> Option<f32> {
        None
    }
    /// The next global state from the current one and a round's surviving
    /// updates (never empty, but possibly all of weight 0, in which case
    /// the model carries forward). `num_params` is where the parameters end and
    /// the extra state (batch-norm statistics) begins.
    fn aggregate(global: &[f32], updates: &[ClientUpdate], num_params: usize) -> Vec<f32> {
        let _ = num_params;
        average_updates(updates, global)
    }
}

/// Vanilla FedAvg (McMahan et al. 2017).
#[derive(Debug, Clone, Copy, Default)]
pub struct FedAvg;

impl Global for FedAvg {
    const NAME: &'static str = "FedAvg";
}

/// FedProx (Li et al. 2020): FedAvg with a proximal term μ/2·‖w − w_g‖² in
/// every client's local objective.
#[derive(Debug, Clone, Copy)]
pub struct FedProx;

/// FedProx's proximal coefficient μ (the paper's 0.01).
const MU: f32 = 0.01;

impl Global for FedProx {
    const NAME: &'static str = "FedProx";
    fn prox_mu(&self) -> Option<f32> {
        Some(MU)
    }
}

/// FedNova (Wang et al. 2020): normalises each client's cumulative update
/// by its local step count τ_i before averaging, removing objective
/// inconsistency when clients take different numbers of steps.
#[derive(Debug, Clone, Copy, Default)]
pub struct FedNova;

impl Global for FedNova {
    const NAME: &'static str = "FedNova";
    /// Normalised averaging over the *parameter* part:
    ///   th <- th - tau_eff * sum p_i (th - th_i)/tau_i,
    /// with p_i = n_i/sum n and tau_eff = sum p_i tau_i. The extra state
    /// (batch-norm statistics) has no step-count semantics and is plainly
    /// weight-averaged.
    fn aggregate(global: &[f32], updates: &[ClientUpdate], num_params: usize) -> Vec<f32> {
        let mut out = global.to_vec();
        let total_w: f64 = updates.iter().map(|u| u.weight as f64).sum();
        if total_w <= 0.0 {
            return out; // nobody carries weight: p_i is undefined
        }
        let tau_eff: f64 = updates
            .iter()
            .map(|u| (u.weight as f64 / total_w) * u.steps as f64)
            .sum();
        let mut direction = vec![0.0f64; num_params];
        for u in updates {
            let p = u.weight as f64 / total_w;
            let tau = (u.steps as f64).max(1.0);
            for (d, (g, l)) in direction
                .iter_mut()
                .zip(global[..num_params].iter().zip(&u.state[..num_params]))
            {
                *d += p * ((*g as f64) - (*l as f64)) / tau;
            }
        }
        for (g, d) in out[..num_params].iter_mut().zip(&direction) {
            *g = ((*g as f64) - tau_eff * d) as f32;
        }
        if global.len() > num_params {
            let items: Vec<(&[f32], f32)> = updates
                .iter()
                .map(|u| (&u.state[num_params..], u.weight))
                .collect();
            let extra = weighted_average(&items);
            out[num_params..].copy_from_slice(&extra);
        }
        out
    }
}

/// The artifact of a FedAvg-family run is its final global state (the
/// newcomer experiment hands it to unseen clients).
impl<G: Global> Method for G {
    const NAME: &'static str = G::NAME;
    const DISTRIBUTES: bool = true;
    type State = Vec<f32>;
    type Artifacts = Vec<f32>;

    fn init(&self, ctx: &mut RoundCtx<'_>) -> Vec<f32> {
        ctx.template.state_vec()
    }

    fn restore(&self, ctx: &RoundCtx<'_>, saved: MethodState) -> Result<Vec<f32>, CheckpointError> {
        let MethodState::Global { state } = saved else {
            return Err(wrong_state(G::NAME, &saved));
        };
        check_len("global state", state.len(), ctx.template.state_len())?;
        Ok(state)
    }

    fn round(&self, global: &mut Vec<f32>, ctx: &mut RoundCtx<'_>, round: usize) {
        let updates = ctx.train_round(global, round, LocalRule::Sgd(self.prox_mu()));
        // With every update lost or quarantined the model carries forward.
        if !updates.is_empty() {
            *global = G::aggregate(global, &updates, ctx.template.num_params());
        }
    }

    fn snapshot(&self, global: &Vec<f32>) -> MethodState {
        MethodState::Global {
            state: global.clone(),
        }
    }

    fn evaluate(&self, global: &Vec<f32>, ctx: &RoundCtx<'_>) -> Vec<f32> {
        evaluate_clients(ctx.fd, &ctx.template, |_| &global[..])
    }

    fn num_clusters(&self, _: &Vec<f32>) -> Option<usize> {
        Some(1)
    }

    fn finish(&self, global: Vec<f32>, _: RoundCtx<'_>) -> Vec<f32> {
        global
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FlConfig;
    use crate::driver::{run_federation, NoCheckpoints};
    use crate::engine::init_model;
    use crate::methods::FlMethod;
    use fedclust_data::{DatasetProfile, FederatedDataset, Partition};

    fn tiny_fd(seed: u64, skew: f32) -> FederatedDataset {
        FederatedDataset::build(
            DatasetProfile::FmnistLike,
            Partition::LabelSkew { fraction: skew },
            &fedclust_data::federated::FederatedConfig {
                num_clients: 6,
                samples_per_class: 40,
                seed,
            },
        )
    }

    #[test]
    fn fedavg_improves_over_random_init() {
        let fd = tiny_fd(0, 0.5);
        let mut cfg = FlConfig::tiny(0);
        cfg.rounds = 5;
        let result = FedAvg.run(&fd, &cfg);
        // Random init on 10 classes ≈ 10 %; even a few rounds should beat it.
        assert!(result.final_acc > 0.15, "final acc {}", result.final_acc);
        assert_eq!(result.per_client_acc.len(), 6);
        assert!(!result.history.is_empty());
        assert!(result.total_mb > 0.0);
    }

    #[test]
    fn history_rounds_are_ascending_with_monotone_mb() {
        let fd = tiny_fd(1, 0.5);
        let cfg = FlConfig::tiny(1);
        let result = FedProx.run(&fd, &cfg);
        for w in result.history.windows(2) {
            assert!(w[0].round < w[1].round);
            assert!(w[0].cum_mb <= w[1].cum_mb);
        }
    }

    #[test]
    fn fednova_runs_and_aggregates() {
        let fd = tiny_fd(2, 0.5);
        let cfg = FlConfig::tiny(2);
        let result = FedNova.run(&fd, &cfg);
        assert!(result.final_acc.is_finite());
        assert!(result.final_acc >= 0.0 && result.final_acc <= 1.0);
    }

    #[test]
    fn all_globals_have_same_comm_cost() {
        let fd = tiny_fd(3, 0.5);
        let cfg = FlConfig::tiny(3);
        let a = FedAvg.run(&fd, &cfg);
        let b = FedProx.run(&fd, &cfg);
        let c = FedNova.run(&fd, &cfg);
        assert!((a.total_mb - b.total_mb).abs() < 1e-9);
        assert!((a.total_mb - c.total_mb).abs() < 1e-9);
    }

    #[test]
    fn runs_are_deterministic() {
        let fd = tiny_fd(4, 0.5);
        let cfg = FlConfig::tiny(4);
        let a = FedAvg.run(&fd, &cfg);
        let b = FedAvg.run(&fd, &cfg);
        assert_eq!(a.final_acc, b.final_acc);
        assert_eq!(a.per_client_acc, b.per_client_acc);
    }

    #[test]
    fn fednova_equals_fedavg_with_equal_local_steps() {
        // With identical per-client dataset sizes every client takes the
        // same τ_i, and FedNova's normalised update reduces algebraically
        // to plain FedAvg. IID partitioning over a divisible pool gives
        // exactly equal sizes.
        let fd = FederatedDataset::build(
            DatasetProfile::FmnistLike,
            Partition::Iid,
            &fedclust_data::federated::FederatedConfig {
                num_clients: 4,
                samples_per_class: 20,
                seed: 5,
            },
        );
        let mut cfg = FlConfig::tiny(5);
        cfg.rounds = 2;
        // Equal τ_i means equal minibatch counts per epoch.
        let steps: Vec<usize> = fd
            .clients
            .iter()
            .map(|c| c.train_samples().div_ceil(cfg.batch_size))
            .collect();
        assert!(
            steps.iter().all(|&s| s == steps[0]),
            "setup requires equal step counts, got {:?}",
            steps
        );
        let nova = FedNova.run(&fd, &cfg);
        let avg = FedAvg.run(&fd, &cfg);
        assert!(
            (nova.final_acc - avg.final_acc).abs() < 1e-6,
            "FedNova {} vs FedAvg {}",
            nova.final_acc,
            avg.final_acc
        );
        assert_eq!(nova.per_client_acc, avg.per_client_acc);
    }

    #[test]
    fn the_artifact_is_the_state_the_final_accuracy_was_measured_on() {
        let fd = tiny_fd(6, 0.4);
        let mut cfg = FlConfig::tiny(6);
        cfg.rounds = 2;
        let Ok((run, state)) = run_federation(&FedAvg, &fd, &cfg, NoCheckpoints, None);
        let template = init_model(&fd, &cfg);
        let per_client = evaluate_clients(&fd, &template, |_| &state[..]);
        let acc = crate::engine::average_accuracy(&per_client);
        assert!((acc - run.final_acc).abs() < 1e-9);
    }
}
