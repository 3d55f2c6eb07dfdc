//! FedDyn (Acar et al. 2021): federated learning with dynamic
//! regularization.
//!
//! The paper's §2.1 cites FedDyn as the dynamic-regularizer answer to
//! client drift. Each client keeps a dual variable `λ_i` (the running sum
//! of its local first-order conditions) and minimises
//!
//! ```text
//! F_i(w) − ⟨λ_i, w⟩ + (α/2)·‖w − θ‖²
//! ```
//!
//! whose gradient contribution is `g − λ_i + α(w − θ)`. After local
//! training the dual update is `λ_i ← λ_i − α(w_i − θ)`, and the server
//! tracks `h ← h − α·mean_{i∈S}(w_i − θ)` to de-bias the new global model
//! `θ⁺ = mean(w_i) − h/α`.
//!
//! Like SCAFFOLD, FedDyn is part of the extended related-work suite, not
//! the paper's main tables.

use crate::checkpoint::{check_len, wrong_state, CheckpointError, FedDynState, MethodState};
use crate::driver::{Method, RoundCtx};
use crate::engine::{evaluate_clients, local_train_corrected, weighted_average_or};

/// FedDyn with regularization strength `ALPHA`.
#[derive(Debug, Clone, Copy)]
pub struct FedDyn;

/// Dynamic-regularizer coefficient α (the paper of FedDyn uses 0.01–0.1).
const ALPHA: f32 = 0.1;

impl FedDyn {
    /// One client's regularized local pass; returns its new full state.
    fn local_train(
        &self,
        s: &FedDynState,
        ctx: &RoundCtx<'_>,
        client: usize,
        round: usize,
    ) -> Vec<f32> {
        let mut model = ctx.template.clone();
        model.set_state_vec(&s.state);
        let lambda_i = &s.lambdas[client];
        let data = &ctx.fd.clients[client];
        local_train_corrected(&mut model, data, ctx.cfg, client, round, |i, w, g| {
            g - lambda_i[i] + ALPHA * (w - s.state[i])
        });
        model.state_vec()
    }
}

impl Method for FedDyn {
    const NAME: &'static str = "FedDyn";
    type State = FedDynState;
    type Artifacts = ();

    fn init(&self, ctx: &mut RoundCtx<'_>) -> FedDynState {
        let num_params = ctx.template.num_params();
        FedDynState {
            state: ctx.template.state_vec(),
            h: vec![0.0f32; num_params],
            lambdas: vec![vec![0.0f32; num_params]; ctx.fd.num_clients()],
        }
    }

    fn restore(
        &self,
        ctx: &RoundCtx<'_>,
        saved: MethodState,
    ) -> Result<FedDynState, CheckpointError> {
        let MethodState::FedDyn(s) = saved else {
            return Err(wrong_state(Self::NAME, &saved));
        };
        let num_params = ctx.template.num_params();
        check_len("server state", s.state.len(), ctx.template.state_len())?;
        check_len("server corrector h", s.h.len(), num_params)?;
        check_len("client duals", s.lambdas.len(), ctx.fd.num_clients())?;
        for l in &s.lambdas {
            check_len("client dual", l.len(), num_params)?;
        }
        Ok(s)
    }

    fn round(&self, s: &mut FedDynState, ctx: &mut RoundCtx<'_>, round: usize) {
        let num_params = ctx.template.num_params();
        let state_len = s.state.len();
        let trained = ctx.on_clients(round, state_len, |ctx, client| {
            self.local_train(s, ctx, client, round)
        });

        // The dual update uses the client-side w and persists whether
        // or not the upload makes it; the server aggregates only the
        // uploads that survive the uplink and the quarantine screen.
        let mut results: Vec<(Vec<f32>, f32)> = Vec::with_capacity(trained.len());
        for (client, mut payload) in trained {
            for ((l, &w), &g) in s.lambdas[client].iter_mut().zip(&payload).zip(&s.state) {
                *l -= ALPHA * (w - g);
            }
            // The payload is the client's state vector, so a "stale"
            // corruption replays the broadcast global state.
            if ctx.upload(round, client, &mut payload, Some(&s.state)) {
                results.push((payload, ctx.fd.clients[client].train_samples() as f32));
            }
        }
        // An empty survivor set leaves θ, h and the duals as they are.
        if results.is_empty() {
            return;
        }
        // Server state from the surviving uploads.
        let n = results.len() as f64;
        let mut mean_w = vec![0.0f64; num_params];
        for (w, _) in &results {
            for (m, &wj) in mean_w.iter_mut().zip(w) {
                *m += wj as f64 / n;
            }
        }
        for ((h, &m), &g) in s.h.iter_mut().zip(&mean_w).zip(&s.state) {
            *h -= ALPHA * (m as f32 - g);
        }
        for ((g, &m), &h) in s.state.iter_mut().zip(&mean_w).zip(&s.h) {
            *g = m as f32 - h / ALPHA;
        }
        if state_len > num_params {
            let items: Vec<(&[f32], f32)> = results
                .iter()
                .map(|(w, weight)| (&w[num_params..], *weight))
                .collect();
            let avg = weighted_average_or(&items, &s.state[num_params..]);
            s.state[num_params..].copy_from_slice(&avg);
        }
    }

    fn snapshot(&self, s: &FedDynState) -> MethodState {
        MethodState::FedDyn(s.clone())
    }

    fn evaluate(&self, s: &FedDynState, ctx: &RoundCtx<'_>) -> Vec<f32> {
        evaluate_clients(ctx.fd, &ctx.template, |_| &s.state[..])
    }

    fn num_clusters(&self, _: &FedDynState) -> Option<usize> {
        Some(1)
    }

    fn finish(&self, _: FedDynState, _: RoundCtx<'_>) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FlConfig;
    use crate::methods::FlMethod;
    use fedclust_data::{DatasetProfile, FederatedDataset, Partition};

    fn tiny_fd(seed: u64) -> FederatedDataset {
        FederatedDataset::build(
            DatasetProfile::FmnistLike,
            Partition::LabelSkew { fraction: 0.5 },
            &fedclust_data::federated::FederatedConfig {
                num_clients: 6,
                samples_per_class: 30,
                seed,
            },
        )
    }

    #[test]
    fn feddyn_learns_at_fedavg_communication_cost() {
        let fd = tiny_fd(0);
        let mut cfg = FlConfig::tiny(0);
        cfg.rounds = 5;
        let r = FedDyn.run(&fd, &cfg);
        assert!(r.final_acc > 0.15, "acc {}", r.final_acc);
        let fedavg = crate::methods::FedAvg.run(&fd, &cfg);
        assert!(
            (r.total_mb - fedavg.total_mb).abs() < 1e-9,
            "FedDyn moves no extra bytes"
        );
    }

    #[test]
    fn feddyn_is_deterministic_and_finite() {
        let fd = tiny_fd(1);
        let cfg = FlConfig::tiny(1);
        let a = FedDyn.run(&fd, &cfg);
        let b = FedDyn.run(&fd, &cfg);
        assert_eq!(a.per_client_acc, b.per_client_acc);
        assert!(a.final_acc.is_finite());
    }
}
