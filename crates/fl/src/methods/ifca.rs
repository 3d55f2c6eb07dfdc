//! IFCA (Ghosh et al. 2020): iterative federated clustering with a fixed
//! number of cluster models.
//!
//! The server keeps `k` models. Each round it broadcasts **all k models**
//! to every sampled client (the k× downlink cost the paper's Table 5
//! penalises); the client picks the model with the lowest loss on its own
//! training data, trains it, and uploads the result tagged with the chosen
//! cluster. The server averages per cluster.

use crate::checkpoint::{check_len, wrong_state, CheckpointError, MethodState};
use crate::driver::{members_by_cluster, Method, RoundCtx};
use crate::engine::{average_updates, evaluate_models};
use fedclust_nn::Model;
use fedclust_tensor::rng::{derive, streams};

/// IFCA with `k` cluster models.
#[derive(Debug, Clone, Copy)]
pub struct Ifca {
    /// Number of cluster models (must be fixed in advance — the
    /// inflexibility the paper criticises). The one baseline setting that
    /// stays a field: its downlink cost grows with `k`, and
    /// `tests/comm_accounting.rs` sweeps it to pin that.
    pub k: usize,
}

impl Default for Ifca {
    fn default() -> Self {
        Ifca { k: 4 }
    }
}

impl Ifca {
    /// Pick the best cluster model for a client by training-set loss — how
    /// IFCA assigns its clients every round, and an unseen client after
    /// federation. A client with no training data has no loss to compare
    /// and is not scored: it stays with the first model (and, at weight 0,
    /// moves none). A model whose loss is NaN is never picked over one
    /// whose loss is a number.
    pub fn best_cluster(
        template: &Model,
        states: &[Vec<f32>],
        data: &fedclust_data::ClientData,
    ) -> usize {
        if data.train_samples() == 0 {
            return 0;
        }
        let idx: Vec<usize> = (0..data.train.len()).collect();
        let (x, y) = data.train.batch(&idx);
        let mut best = 0usize;
        let mut best_loss = f32::INFINITY;
        for (ci, state) in states.iter().enumerate() {
            let mut model = template.clone();
            model.set_state_vec(state);
            let (loss, _) = model.evaluate(x.clone(), &y);
            if loss < best_loss {
                best_loss = loss;
                best = ci;
            }
        }
        best
    }
}

/// The state and the artifact are the k cluster models (Table 6 assigns
/// unseen clients to them post-hoc).
impl Method for Ifca {
    const NAME: &'static str = "IFCA";
    /// IFCA trains in the round's one batch, but a client's choice of model
    /// does not: it evaluates all k models on the client's own training
    /// data, here, and a work unit carries one start state to train, not k
    /// to choose from.
    const DISTRIBUTES: bool = false;
    type State = Vec<Vec<f32>>;
    type Artifacts = Vec<Vec<f32>>;

    fn init(&self, ctx: &mut RoundCtx<'_>) -> Vec<Vec<f32>> {
        assert!(self.k >= 1, "IFCA needs at least one cluster");
        let (fd, cfg) = (ctx.fd, ctx.cfg);
        // k independently initialised cluster models (IFCA random inits).
        (0..self.k)
            .map(|ci| {
                let mut rng = derive(cfg.seed, &[streams::MODEL_INIT, 100 + ci as u64]);
                cfg.model
                    .build(fd.channels, fd.height, fd.width, fd.num_classes, &mut rng)
                    .state_vec()
            })
            .collect()
    }

    fn restore(
        &self,
        ctx: &RoundCtx<'_>,
        saved: MethodState,
    ) -> Result<Vec<Vec<f32>>, CheckpointError> {
        let MethodState::Ifca { states } = saved else {
            return Err(wrong_state(Self::NAME, &saved));
        };
        check_len("cluster models", states.len(), self.k)?;
        for s in &states {
            check_len("cluster model", s.len(), ctx.template.state_len())?;
        }
        Ok(states)
    }

    fn round(&self, states: &mut Vec<Vec<f32>>, ctx: &mut RoundCtx<'_>, round: usize) {
        // All k models go down in one bundle per client, which picks one.
        let down = self.k * ctx.template.state_len();
        let chosen = ctx.on_clients(round, down, |ctx, client| {
            Self::best_cluster(&ctx.template, states, &ctx.fd.clients[client])
        });
        // The clients of every chosen model train in one batch, each from
        // (and coded and corrupted against) the model it chose.
        let (clusters, reached): (Vec<usize>, Vec<_>) = members_by_cluster(chosen)
            .into_iter()
            .map(|(ci, members)| (ci, (&states[ci][..], members)))
            .unzip();
        let trained = ctx.train_reached(reached, round, None);
        for (ci, updates) in clusters.into_iter().zip(trained) {
            states[ci] = average_updates(&updates, &states[ci]);
        }
    }

    fn snapshot(&self, states: &Vec<Vec<f32>>) -> MethodState {
        MethodState::Ifca {
            states: states.clone(),
        }
    }

    fn evaluate(&self, states: &Vec<Vec<f32>>, ctx: &RoundCtx<'_>) -> Vec<f32> {
        evaluate_models(ctx.fd, |client| {
            let ci = Self::best_cluster(&ctx.template, states, &ctx.fd.clients[client]);
            let mut model = ctx.template.clone();
            model.set_state_vec(&states[ci]);
            model
        })
    }

    fn num_clusters(&self, _: &Vec<Vec<f32>>) -> Option<usize> {
        Some(self.k)
    }

    fn finish(&self, states: Vec<Vec<f32>>, _: RoundCtx<'_>) -> Vec<Vec<f32>> {
        states
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FlConfig;
    use crate::methods::FlMethod;
    use fedclust_data::{DatasetProfile, FederatedDataset, Partition};

    #[test]
    fn ifca_downlink_is_k_times_fedavg() {
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
        let ifca = Ifca { k: 3 }.run(&fd, &cfg);
        let fedavg = crate::methods::FedAvg.run(&fd, &cfg);
        // IFCA total = (k·down + up)·rounds; FedAvg = (down + up)·rounds.
        // With k=3 this is 2× FedAvg.
        let ratio = ifca.total_mb / fedavg.total_mb;
        assert!((ratio - 2.0).abs() < 0.01, "ratio {}", ratio);
        assert_eq!(ifca.num_clusters, Some(3));
    }

    #[test]
    fn a_model_with_a_nan_loss_is_never_the_best() {
        let fd = FederatedDataset::build(
            DatasetProfile::FmnistLike,
            Partition::LabelSkew { fraction: 0.3 },
            &fedclust_data::federated::FederatedConfig {
                num_clients: 2,
                samples_per_class: 10,
                seed: 1,
            },
        );
        let template = crate::engine::init_model(&fd, &FlConfig::tiny(1));
        let finite = template.state_vec();
        let nan = vec![f32::NAN; finite.len()];
        let data = &fd.clients[0];
        let states = [nan.clone(), finite.clone()];
        assert_eq!(Ifca::best_cluster(&template, &states, data), 1);
        let states = [finite, nan];
        assert_eq!(Ifca::best_cluster(&template, &states, data), 0);
    }
}
