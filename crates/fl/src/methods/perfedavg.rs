//! Per-FedAvg (Fallah et al. 2020): first-order MAML-style personalized FL.
//!
//! Clients optimise the meta-objective "loss after one local adaptation
//! step". We implement the first-order approximation (FO-MAML): for a pair
//! of minibatches (B₁, B₂), take an inner step on B₁ with rate α, compute
//! the gradient on B₂ at the adapted weights, then apply that gradient to
//! the *original* weights with rate β. At evaluation time each client
//! personalizes the global model with a few α-steps on its own training
//! data before testing.

use crate::checkpoint::{check_len, wrong_state, CheckpointError, MethodState};
use crate::driver::{Method, RoundCtx};
use crate::engine::{epoch_batches, evaluate_models, local_train, weighted_average_or};
use fedclust_nn::loss::cross_entropy;
use fedclust_nn::optim::{Sgd, SgdConfig};

/// Per-FedAvg with FO-MAML inner/outer steps.
#[derive(Debug, Clone, Copy)]
pub struct PerFedAvg;

/// Inner (adaptation) learning rate α (the paper's 1e-2).
const ALPHA: f32 = 0.01;
/// Outer (meta) learning rate β. The paper uses 1e-3 over 200 rounds; with
/// the reproduction's compressed round budget β is scaled up to keep the
/// same total meta-progress (documented in EXPERIMENTS.md).
const BETA: f32 = 0.05;
/// Personalization epochs at evaluation time.
const PERSONALIZE_EPOCHS: usize = 1;

impl PerFedAvg {
    /// One client's FO-MAML local pass; returns the new state.
    fn local_meta_train(
        &self,
        ctx: &RoundCtx<'_>,
        start_state: &[f32],
        client: usize,
        round: usize,
    ) -> Vec<f32> {
        let (data, cfg) = (&ctx.fd.clients[client], ctx.cfg);
        let mut model = ctx.template.clone();
        model.set_state_vec(start_state);
        for batches in epoch_batches(data, cfg, cfg.local_epochs, client, round) {
            for pair in batches.chunks(2) {
                if pair.len() < 2 {
                    continue; // need two independent batches per meta-step
                }
                let w = model.param_vec();
                // Inner step on B₁ with rate α (no momentum, as in MAML).
                let mut inner = Sgd::new(SgdConfig {
                    lr: ALPHA,
                    momentum: 0.0,
                });
                let (x1, y1) = data.train.batch(&pair[0]);
                model.train_step(x1, &y1, &mut inner);
                // Gradient on B₂ at the adapted weights.
                let (x2, y2) = data.train.batch(&pair[1]);
                let logits = model.forward(x2, true);
                let (_, grad) = cross_entropy(&logits, &y2);
                model.backward_params(grad);
                // Collect ∇f(w′) and apply it to the original w with rate β.
                let meta_grad: Vec<f32> = model
                    .params()
                    .iter()
                    .flat_map(|p| p.grad.data().iter().copied())
                    .collect::<Vec<f32>>();
                model.zero_grad();
                let new_w: Vec<f32> = w
                    .iter()
                    .zip(&meta_grad)
                    .map(|(&wi, &g)| wi - BETA * g)
                    .collect();
                model.set_param_vec(&new_w);
            }
        }
        model.state_vec()
    }
}

/// The meta-state has the single-global-model shape, so it shares the
/// `Global` checkpoint variant. The artifact is the trained meta-state,
/// for post-hoc personalization of unseen clients (Table 6).
impl Method for PerFedAvg {
    const NAME: &'static str = "PerFedAvg";
    type State = Vec<f32>;
    type Artifacts = Vec<f32>;

    fn init(&self, ctx: &mut RoundCtx<'_>) -> Vec<f32> {
        ctx.template.state_vec()
    }

    fn restore(&self, ctx: &RoundCtx<'_>, saved: MethodState) -> Result<Vec<f32>, CheckpointError> {
        let MethodState::Global { state } = saved else {
            return Err(wrong_state(Self::NAME, &saved));
        };
        check_len("meta state", state.len(), ctx.template.state_len())?;
        Ok(state)
    }

    fn round(&self, global: &mut Vec<f32>, ctx: &mut RoundCtx<'_>, round: usize) {
        let trained = ctx.on_clients(round, global.len(), |ctx, client| {
            self.local_meta_train(ctx, global, client, round)
        });
        let mut updates: Vec<(Vec<f32>, f32)> = Vec::with_capacity(trained.len());
        for (client, mut state) in trained {
            if ctx.upload(round, client, &mut state, Some(global)) {
                updates.push((state, ctx.fd.clients[client].train_samples() as f32));
            }
        }
        let items: Vec<(&[f32], f32)> = updates.iter().map(|(s, w)| (s.as_slice(), *w)).collect();
        *global = weighted_average_or(&items, global);
    }

    fn snapshot(&self, global: &Vec<f32>) -> MethodState {
        MethodState::Global {
            state: global.clone(),
        }
    }

    /// Personalize from the global state, then test each client.
    fn evaluate(&self, global: &Vec<f32>, ctx: &RoundCtx<'_>) -> Vec<f32> {
        evaluate_models(ctx.fd, |client| {
            let mut model = ctx.template.clone();
            model.set_state_vec(global);
            let mut opt = Sgd::new(SgdConfig {
                lr: ALPHA,
                momentum: 0.0,
            });
            local_train(
                &mut model,
                &ctx.fd.clients[client],
                &mut opt,
                PERSONALIZE_EPOCHS,
                ctx.cfg,
                client,
                usize::MAX - 1, // a dedicated rng stream for evaluation
            );
            model
        })
    }

    fn num_clusters(&self, _: &Vec<f32>) -> Option<usize> {
        None
    }

    fn finish(&self, global: Vec<f32>, _: RoundCtx<'_>) -> Vec<f32> {
        global
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FlConfig;
    use crate::methods::FlMethod;
    use fedclust_data::{DatasetProfile, FederatedDataset, Partition};

    #[test]
    fn perfedavg_runs_and_personalizes() {
        let fd = FederatedDataset::build(
            DatasetProfile::FmnistLike,
            Partition::LabelSkew { fraction: 0.3 },
            &fedclust_data::federated::FederatedConfig {
                num_clients: 5,
                samples_per_class: 30,
                seed: 0,
            },
        );
        let mut cfg = FlConfig::tiny(0);
        cfg.rounds = 4;
        let r = PerFedAvg.run(&fd, &cfg);
        assert!(r.final_acc.is_finite());
        assert!(r.final_acc >= 0.0 && r.final_acc <= 1.0);
        assert!(r.total_mb > 0.0);
        assert!(!r.history.is_empty());
    }
}
