//! The `Local` baseline: every client trains alone, no communication.

use crate::checkpoint::{CheckpointError, Checkpointer};
use crate::config::FlConfig;
use crate::engine::{
    average_accuracy, init_model, train_replica, LocalJob, LocalRule, RemoteTrainer,
};
use crate::methods::FlMethod;
use crate::metrics::{RoundRecord, RunResult};
use fedclust_data::FederatedDataset;
use rayon::prelude::*;

/// Each client independently trains a model on its local data; there is no
/// server and no communication. Under heavy label skew this is a strong
/// baseline (each client only has to separate a few classes), which is
/// exactly the paper's motivation for clustering. Each client trains the
/// epochs a federated client is expected to get
/// (`rounds × sample_rate × local_epochs`), so the compute is matched.
#[derive(Debug, Clone, Copy, Default)]
pub struct LocalOnly;

/// No server and no rounds, so not a [`crate::driver::Method`]: there is
/// nothing to checkpoint, resume or distribute, and an enabled
/// [`Checkpointer`] is refused rather than silently ignored.
impl FlMethod for LocalOnly {
    fn name(&self) -> &'static str {
        "Local"
    }

    fn distributes(&self) -> bool {
        false
    }

    fn run_hosted(
        &self,
        fd: &FederatedDataset,
        cfg: &FlConfig,
        ckpt: &mut Checkpointer,
        _: Option<&dyn RemoteTrainer>,
    ) -> Result<RunResult, CheckpointError> {
        if ckpt.is_enabled() {
            return Err(CheckpointError::WrongState(
                "Local keeps no server state to checkpoint or resume".into(),
            ));
        }
        Ok(self.run(fd, cfg))
    }

    fn run(&self, fd: &FederatedDataset, cfg: &FlConfig) -> RunResult {
        let template = init_model(fd, cfg);
        let init_state = template.state_vec();
        let expected = cfg.rounds as f32 * cfg.sample_rate * cfg.local_epochs as f32;
        let total_epochs = (expected.round() as usize).max(1);
        // Evaluate a handful of times along the way so Local has a history
        // to plot in Fig. 3 (mapped onto the round axis proportionally).
        let chunks = 4.min(total_epochs);
        let epochs_per_chunk = total_epochs / chunks;

        let mut per_client_states: Vec<Vec<f32>> = vec![init_state.clone(); fd.num_clients()];
        let mut history = Vec::new();
        // `chunks >= 1`, so the last chunk's evaluation is the final one.
        let mut per_client_acc = Vec::new();

        for chunk in 0..chunks {
            let epochs = if chunk + 1 == chunks {
                total_epochs - epochs_per_chunk * (chunks - 1)
            } else {
                epochs_per_chunk
            };
            per_client_states = per_client_states
                .into_par_iter()
                .enumerate()
                .map(|(client, state)| {
                    let data = &fd.clients[client];
                    let job = LocalJob {
                        start_state: &state,
                        epochs,
                        client,
                        round: chunk,
                        rule: LocalRule::Sgd(None),
                    };
                    train_replica(&template, data, cfg, job).0.state_vec()
                })
                .collect();
            per_client_acc =
                crate::engine::evaluate_clients(fd, &template, |c| per_client_states[c].as_slice());
            history.push(RoundRecord {
                round: ((chunk + 1) * cfg.rounds) / chunks,
                avg_acc: average_accuracy(&per_client_acc),
                cum_mb: 0.0,
            });
        }

        RunResult {
            method: self.name().to_string(),
            final_acc: average_accuracy(&per_client_acc),
            per_client_acc,
            history,
            num_clusters: Some(fd.num_clients()),
            total_mb: 0.0,
            faults: crate::faults::FaultTelemetry::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedclust_data::{DatasetProfile, Partition};

    #[test]
    fn local_has_zero_communication_and_learns_skewed_data() {
        let fd = FederatedDataset::build(
            DatasetProfile::FmnistLike,
            Partition::LabelSkew { fraction: 0.2 },
            &fedclust_data::federated::FederatedConfig {
                num_clients: 5,
                samples_per_class: 40,
                seed: 0,
            },
        );
        let mut cfg = FlConfig::tiny(0);
        cfg.rounds = 8;
        cfg.sample_rate = 0.5;
        let r = LocalOnly.run(&fd, &cfg);
        assert_eq!(r.total_mb, 0.0);
        // Clients hold ≤2–3 labels: local training should do far better
        // than the 10-class random baseline.
        assert!(r.final_acc > 0.3, "final acc {}", r.final_acc);
        assert!(!r.history.is_empty());
    }
}
