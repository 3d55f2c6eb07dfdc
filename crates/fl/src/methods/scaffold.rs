//! SCAFFOLD (Karimireddy et al. 2020): stochastic controlled averaging.
//!
//! The paper's §2.1 discusses SCAFFOLD as the variance-reduction approach
//! to client drift: the server keeps a global control variate `c` and each
//! client a local one `c_i`; local SGD steps use the corrected gradient
//! `g + c − c_i`, which cancels the client-specific drift direction. After
//! `K` local steps the client refreshes its control variate with
//! `c_i⁺ = c_i − c + (x − w)/(K·η)` (option II of the paper) and uploads
//! both Δw and Δc.
//!
//! SCAFFOLD is not in the paper's main tables, but it is implemented here
//! as part of the related-work baseline suite (see `methods::extended`).

use crate::checkpoint::{check_len, wrong_state, CheckpointError, MethodState, ScaffoldState};
use crate::driver::{Method, RoundCtx};
use crate::engine::{evaluate_clients, weighted_average_or, LocalRule};

/// SCAFFOLD with server learning rate `ETA_G`.
#[derive(Debug, Clone, Copy)]
pub struct Scaffold;

/// Server step size applied to the averaged client delta (the paper's ηg;
/// 1.0 keeps plain averaging of the client deltas).
const ETA_G: f32 = 1.0;

impl Method for Scaffold {
    const NAME: &'static str = "SCAFFOLD";
    type State = ScaffoldState;
    type Artifacts = ();

    fn init(&self, ctx: &mut RoundCtx<'_>) -> ScaffoldState {
        let num_params = ctx.template.num_params();
        ScaffoldState {
            state: ctx.template.state_vec(),
            c_global: vec![0.0f32; num_params],
            c_clients: vec![vec![0.0f32; num_params]; ctx.fd.num_clients()],
        }
    }

    fn restore(
        &self,
        ctx: &RoundCtx<'_>,
        saved: MethodState,
    ) -> Result<ScaffoldState, CheckpointError> {
        let MethodState::Scaffold(s) = saved else {
            return Err(wrong_state(Self::NAME, &saved));
        };
        let num_params = ctx.template.num_params();
        check_len("server state", s.state.len(), ctx.template.state_len())?;
        check_len("global control variate", s.c_global.len(), num_params)?;
        check_len(
            "client control variates",
            s.c_clients.len(),
            ctx.fd.num_clients(),
        )?;
        for ci in &s.c_clients {
            check_len("client control variate", ci.len(), num_params)?;
        }
        Ok(s)
    }

    fn round(&self, s: &mut ScaffoldState, ctx: &mut RoundCtx<'_>, round: usize) {
        let num_params = ctx.template.num_params();
        let state_len = s.state.len();
        // Down: model state + global control variate. Up: Δw (+ extra
        // state) + Δc, concatenated into one payload (`LocalRule::Scaffold`).
        let reached = ctx.reach(round, state_len + num_params);
        let (c, c_clients) = (&s.c_global, &s.c_clients);
        let rule = |client: usize| LocalRule::Scaffold {
            c,
            c_i: &c_clients[client],
        };
        let groups = vec![(&s.state[..], reached)];
        let (mut trained, kept) = ctx.train_reached(groups, round, 0..state_len, rule);
        // The client-side control variate refresh persists whether or
        // not the upload makes it; the server only sees survivors.
        for (client, new_ci) in kept {
            s.c_clients[client] = new_ci;
        }
        let outcomes = trained.pop().unwrap_or_default();
        // An empty survivor set carries the server state forward.
        if outcomes.is_empty() {
            return;
        }
        // Server update: x ← x + ηg · mean Δw; c ← c + (|S|/N) mean Δc.
        let n = outcomes.len() as f32;
        let scale_c = n / ctx.fd.num_clients() as f32;
        let mut mean_dw = vec![0.0f64; num_params];
        let mut mean_dc = vec![0.0f64; num_params];
        for o in &outcomes {
            let (delta_w, delta_c) = (&o.state[..num_params], &o.state[state_len..]);
            for j in 0..num_params {
                mean_dw[j] += delta_w[j] as f64 / n as f64;
                mean_dc[j] += delta_c[j] as f64 / n as f64;
            }
        }
        for j in 0..num_params {
            s.state[j] += ETA_G * mean_dw[j] as f32;
            s.c_global[j] += scale_c * mean_dc[j] as f32;
        }
        // Extra state (batch-norm stats): sample-size-weighted average.
        if state_len > num_params {
            let items: Vec<(&[f32], f32)> = outcomes
                .iter()
                .map(|o| (&o.state[num_params..state_len], o.weight))
                .collect();
            let extra = weighted_average_or(&items, &s.state[num_params..]);
            s.state[num_params..].copy_from_slice(&extra);
        }
    }

    fn snapshot(&self, s: &ScaffoldState) -> MethodState {
        MethodState::Scaffold(s.clone())
    }

    fn evaluate(&self, s: &ScaffoldState, ctx: &RoundCtx<'_>) -> Vec<f32> {
        evaluate_clients(ctx.fd, &ctx.template, |_| &s.state[..])
    }

    fn num_clusters(&self, _: &ScaffoldState) -> Option<usize> {
        Some(1)
    }

    fn finish(&self, _: ScaffoldState, _: RoundCtx<'_>) {}
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
    fn scaffold_learns_and_costs_double_fedavg_per_round() {
        let fd = tiny_fd(0);
        let mut cfg = FlConfig::tiny(0);
        cfg.rounds = 5;
        let r = Scaffold.run(&fd, &cfg);
        assert!(r.final_acc > 0.15, "acc {}", r.final_acc);
        // SCAFFOLD moves control variates alongside the model: roughly 2×
        // FedAvg's bytes per round (exact factor depends on extra state).
        let fedavg = crate::methods::FedAvg.run(&fd, &cfg);
        let ratio = r.total_mb / fedavg.total_mb;
        assert!(ratio > 1.5 && ratio < 2.5, "ratio {}", ratio);
    }

    #[test]
    fn scaffold_is_deterministic() {
        let fd = tiny_fd(1);
        let cfg = FlConfig::tiny(1);
        let a = Scaffold.run(&fd, &cfg);
        let b = Scaffold.run(&fd, &cfg);
        assert_eq!(a.per_client_acc, b.per_client_acc);
    }

    #[test]
    fn control_variates_start_at_zero_so_round_one_matches_plain_sgd() {
        // With c = c_i = 0 the first local pass is exactly uncorrected SGD
        // (no momentum); SCAFFOLD must therefore produce finite, sane
        // updates from the very first round.
        let fd = tiny_fd(2);
        let mut cfg = FlConfig::tiny(2);
        cfg.rounds = 1;
        let r = Scaffold.run(&fd, &cfg);
        assert!(r.final_acc.is_finite());
        assert!(!r.history.is_empty());
    }
}
