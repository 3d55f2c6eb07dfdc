//! LG-FedAvg (Liang et al. 2020): local low-level representations, global
//! high-level layers.
//!
//! Each client keeps its own parameters for the first (feature-extraction)
//! blocks and only the last `global_blocks` parameter blocks are
//! communicated and averaged — hence its tiny communication cost in the
//! paper's Table 5.

use crate::checkpoint::{check_len, wrong_state, CheckpointError, LgState, MethodState};
use crate::driver::{Method, RoundCtx};
use crate::engine::{average_updates, evaluate_models, LocalRule};
use fedclust_nn::Model;

/// LG-FedAvg with the paper's split: the last `GLOBAL_BLOCKS` parameter
/// blocks are global (classifier head), everything below is local to each
/// client.
#[derive(Debug, Clone, Copy)]
pub struct LgFedAvg;

/// Number of trailing parameter blocks treated as global.
const GLOBAL_BLOCKS: usize = 2;

/// What an LG-FedAvg run leaves behind: the trained global head and where
/// it sits in the parameter/state vector. Newcomers combine it with their
/// own (freshly initialised) local layers.
pub struct LgArtifacts {
    /// The trained global tail (global param blocks + extra state).
    pub global_part: Vec<f32>,
    /// Offset in the state vector where the global part begins.
    pub split: usize,
}

impl LgFedAvg {
    /// Offset (in the state vector) where the global part begins.
    fn split(&self, template: &Model) -> usize {
        let blocks = template.param_blocks();
        assert!(
            GLOBAL_BLOCKS < blocks.len(),
            "need at least one local block"
        );
        blocks[blocks.len() - GLOBAL_BLOCKS].offset
    }
}

impl Method for LgFedAvg {
    const NAME: &'static str = "LG";
    type State = LgState;
    type Artifacts = LgArtifacts;

    fn init(&self, ctx: &mut RoundCtx<'_>) -> LgState {
        // All clients start from the same θ⁰ (random init, as the paper
        // configures LG for fairness). The communicated tail is the global
        // param blocks + any extra state (batch-norm stats travel with it).
        let init_state = ctx.template.state_vec();
        LgState {
            global_part: init_state[self.split(&ctx.template)..].to_vec(),
            client_states: vec![init_state; ctx.fd.num_clients()],
        }
    }

    fn restore(&self, ctx: &RoundCtx<'_>, saved: MethodState) -> Result<LgState, CheckpointError> {
        let MethodState::Lg(s) = saved else {
            return Err(wrong_state(Self::NAME, &saved));
        };
        let state_len = ctx.template.state_len();
        let tail = state_len - self.split(&ctx.template);
        check_len("global tail", s.global_part.len(), tail)?;
        check_len("client states", s.client_states.len(), ctx.fd.num_clients())?;
        for cs in &s.client_states {
            check_len("client state", cs.len(), state_len)?;
        }
        Ok(s)
    }

    fn round(&self, s: &mut LgState, ctx: &mut RoundCtx<'_>, round: usize) {
        let split = self.split(&ctx.template);
        // Only the global tail travels; clients the downlink never
        // reaches sit the round out entirely.
        let reached = ctx.reach(round, s.global_part.len());
        let starts: Vec<Vec<f32>> = reached
            .iter()
            .map(|&client| {
                let mut start = s.client_states[client].clone();
                start[split..].copy_from_slice(&s.global_part);
                start
            })
            .collect();
        // One group per client: each starts from its own local layers.
        let groups = starts
            .iter()
            .zip(reached)
            .map(|(start, c)| (&start[..], vec![c]));
        let upload = split..ctx.template.state_len();
        let rule = |_| LocalRule::SgdKept;
        let (trained, kept) = ctx.train_reached(groups.collect(), round, upload, rule);
        // Clients persist their full new state (local part matters)
        // even when the upload is lost — losing the uplink does not
        // undo local training. The server averages only the global
        // tails that survive the uplink and the quarantine screen.
        for (client, full) in kept {
            s.client_states[client] = full;
        }
        let tails: Vec<_> = trained.into_iter().flatten().collect();
        s.global_part = average_updates(&tails, &s.global_part);
    }

    fn snapshot(&self, s: &LgState) -> MethodState {
        MethodState::Lg(s.clone())
    }

    fn evaluate(&self, s: &LgState, ctx: &RoundCtx<'_>) -> Vec<f32> {
        let split = self.split(&ctx.template);
        evaluate_models(ctx.fd, &ctx.template, |replica, client| {
            let mut full = s.client_states[client].clone();
            full[split..].copy_from_slice(&s.global_part);
            replica.set_state_vec(&full);
        })
    }

    fn num_clusters(&self, _: &LgState) -> Option<usize> {
        None
    }

    fn finish(&self, s: LgState, ctx: RoundCtx<'_>) -> LgArtifacts {
        LgArtifacts {
            global_part: s.global_part,
            split: self.split(&ctx.template),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FlConfig;
    use crate::methods::FlMethod;
    use fedclust_data::{DatasetProfile, FederatedDataset, Partition};

    #[test]
    fn lg_communicates_less_than_fedavg() {
        let fd = FederatedDataset::build(
            DatasetProfile::FmnistLike,
            Partition::LabelSkew { fraction: 0.3 },
            &fedclust_data::federated::FederatedConfig {
                num_clients: 6,
                samples_per_class: 30,
                seed: 0,
            },
        );
        let cfg = FlConfig::tiny(0);
        let lg = LgFedAvg.run(&fd, &cfg);
        let fedavg = crate::methods::FedAvg.run(&fd, &cfg);
        assert!(
            lg.total_mb < fedavg.total_mb * 0.8,
            "LG {} vs FedAvg {}",
            lg.total_mb,
            fedavg.total_mb
        );
        assert!(lg.final_acc.is_finite());
    }
}
