//! FedClust, Algorithm 1: the full method.

use crate::clustering::{cluster_clients, ClusteringOutcome, LambdaSelect};
use crate::persist::SavedFederation;
use crate::proximity::{proximity_matrix, WeightSelection};
use fedclust_cluster::hac::Linkage;
use fedclust_data::FederatedDataset;
use fedclust_fl::checkpoint::{check_len, wrong_state, CheckpointError, MethodState};
use fedclust_fl::driver::{Method, RoundCtx};
use fedclust_fl::engine::{evaluate_clients, weighted_average, InProcessTrainer};
use fedclust_fl::{CodecSpec, FaultPlan, FlConfig};
use fedclust_nn::Model;

/// FedClust configuration (Algorithm 1's inputs beyond the shared
/// [`fedclust_fl::FlConfig`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FedClust {
    /// Clustering threshold λ (fixed, or chosen from the dendrogram).
    pub lambda: LambdaSelect,
    /// Linkage criterion for the hierarchical clustering.
    pub linkage: Linkage,
    /// Warm-up local epochs before partial weights are collected
    /// ("a few local iterations", paper §3.4).
    pub warmup_epochs: usize,
    /// Which weights clients upload for clustering. [`WeightSelection::FinalLayer`]
    /// is the paper's method; [`WeightSelection::FullModel`] is the ablation.
    pub selection: WeightSelection,
    /// Distance metric for the proximity matrix (paper: L2, Eq. 3).
    pub metric: fedclust_tensor::distance::Metric,
}

impl Default for FedClust {
    fn default() -> Self {
        FedClust {
            lambda: LambdaSelect::Auto,
            linkage: Linkage::Average,
            warmup_epochs: 2,
            selection: WeightSelection::FinalLayer,
            metric: fedclust_tensor::distance::Metric::L2,
        }
    }
}

impl FedClust {
    /// Algorithm 1's warm-up and upload (lines 2–5): the server broadcasts
    /// θ⁰ to all clients; each the downlink reaches trains briefly on the
    /// run's trainer and uploads only the selected partial weights, through
    /// the uplink's codec, faults and quarantine screen. Returns the clients
    /// whose partials arrived and those partials, in client order.
    pub fn round0(&self, ctx: &mut RoundCtx<'_>) -> (Vec<usize>, Vec<Vec<f32>>) {
        let init_state = ctx.template.state_vec();
        let upload = self.selection.range(&ctx.template);
        let warmed = ctx.warm_up(&init_state, self.warmup_epochs, upload);
        warmed.into_iter().map(|u| (u.client, u.state)).unzip()
    }

    /// Every client's round-0 partial weights, fault-free: [`FedClust::round0`]
    /// in process on `cfg` without its faults and codec, so every client is
    /// reached and every partial arrives as trained. What the λ sweep, Fig. 1
    /// and the clustering diagnostics cluster.
    pub fn clean_partials(&self, fd: &FederatedDataset, cfg: &FlConfig) -> Vec<Vec<f32>> {
        let cfg = FlConfig {
            faults: FaultPlan::none(),
            codec: CodecSpec::none(),
            ..*cfg
        };
        let trainer = InProcessTrainer::new(fd, &cfg);
        self.round0(&mut RoundCtx::new(fd, &cfg, &trainer)).1
    }
}

/// Everything the server retains after a FedClust run: the configuration
/// that trained it, the model template, and the snapshot — cluster models,
/// assignment, and the per-cluster representative partial weights needed
/// to incorporate newcomers (Algorithm 2).
pub struct TrainedFederation {
    /// The configuration round 0 ran with; Algorithm 2 warms newcomers up,
    /// extracts their partial weights and measures Eq. 4 by the same one.
    pub method: FedClust,
    /// The shared model template (architecture), holding θ⁰.
    pub template: Model,
    /// The trained federation itself.
    pub saved: SavedFederation,
}

/// Algorithm 1 on the shared driver: one-shot clustering in `init`, then
/// per-cluster FedAvg.
///
/// FedClust's value is concentrated in its one-shot round-0 state
/// (proximity clustering, representatives), so its checkpoints embed a full
/// [`SavedFederation`] snapshot — which is also the state it carries from
/// round to round — and a post-clustering checkpoint is written
/// immediately (`next_round = 0`: clustering done, no training yet)
/// regardless of the configured cadence. A resumed run never re-clusters —
/// it restores the assignment and continues the per-cluster training
/// rounds bit-identically.
impl Method for FedClust {
    const NAME: &'static str = "FedClust";
    const DISTRIBUTES: bool = true;
    const CHECKPOINT_INIT: bool = true;
    type State = SavedFederation;
    type Artifacts = TrainedFederation;

    /// Round 0 (Algorithm 1, lines 2–7): [`FedClust::round0`], then
    /// `HC(M, λ)` over whatever partials survived. Clustering must tolerate
    /// missing partials: clients without one join the largest cluster.
    fn init(&self, ctx: &mut RoundCtx<'_>) -> SavedFederation {
        let fd = ctx.fd;
        let (survivors, partials) = self.round0(ctx);
        let init_state = ctx.template.state_vec();
        let (outcome, representatives) = if survivors.len() >= 2 {
            let matrix = proximity_matrix(&partials, self.metric);
            let sub = cluster_clients(&matrix, self.linkage, self.lambda);
            let k = sub.num_clusters.max(1);
            // Per-cluster representative partial weights (for Algorithm 2),
            // centroids of the surviving members.
            let representatives: Vec<Vec<f32>> = (0..k)
                .map(|ci| {
                    let items: Vec<(&[f32], f32)> = partials
                        .iter()
                        .zip(&sub.labels)
                        .filter(|(_, &l)| l == ci)
                        .map(|(p, _)| (p.as_slice(), 1.0))
                        .collect();
                    weighted_average(&items)
                })
                .collect();
            // Clients with no usable partial join the largest cluster —
            // the safest default under Eq. 2's weighted aggregation.
            let mut sizes = vec![0usize; k];
            for &l in &sub.labels {
                sizes[l] += 1;
            }
            let largest = (0..k).max_by_key(|&ci| sizes[ci]).unwrap_or(0);
            let mut labels = vec![largest; fd.num_clients()];
            for (&client, &l) in survivors.iter().zip(&sub.labels) {
                labels[client] = l;
            }
            (
                ClusteringOutcome {
                    labels,
                    num_clusters: sub.num_clusters,
                    lambda: sub.lambda,
                },
                representatives,
            )
        } else {
            // Degenerate round 0 (≤1 usable partial): fall back to a single
            // global cluster so training can still proceed.
            let rep = partials
                .into_iter()
                .next()
                .unwrap_or_else(|| self.selection.select(&ctx.template, &init_state).to_vec());
            (
                ClusteringOutcome {
                    labels: vec![0; fd.num_clients()],
                    num_clusters: 1,
                    lambda: 0.0,
                },
                vec![rep],
            )
        };
        SavedFederation {
            model_spec: ctx.cfg.model,
            geometry: (fd.channels, fd.height, fd.width, fd.num_classes),
            labels: outcome.labels.clone(),
            cluster_states: vec![init_state.clone(); outcome.num_clusters.max(1)],
            init_state,
            representatives,
            outcome,
        }
    }

    fn restore(
        &self,
        ctx: &RoundCtx<'_>,
        saved: MethodState,
    ) -> Result<SavedFederation, CheckpointError> {
        let MethodState::FedClust { federation_json } = saved else {
            return Err(wrong_state(Self::NAME, &saved));
        };
        let saved = SavedFederation::from_json(&federation_json).map_err(|e| {
            CheckpointError::Corrupt(format!("embedded federation snapshot: {}", e))
        })?;
        let fd = ctx.fd;
        let geometry = (fd.channels, fd.height, fd.width, fd.num_classes);
        if saved.geometry != geometry {
            return Err(CheckpointError::Mismatch(format!(
                "snapshot geometry {:?} does not match this dataset's {:?}",
                saved.geometry, geometry
            )));
        }
        let clients = saved.outcome.labels.len();
        check_len("cluster labels", clients, fd.num_clients())?;
        saved.check(ctx.template.state_len())?;
        Ok(saved)
    }

    /// Rounds 1..T (Algorithm 1, lines 9–14). Round 0 was the clustering,
    /// so the driver's 0-based `round` samples and trains as `round + 1`.
    fn round(&self, s: &mut SavedFederation, ctx: &mut RoundCtx<'_>, round: usize) {
        ctx.cluster_round(&mut s.cluster_states, &s.outcome.labels, round + 1);
    }

    fn snapshot(&self, s: &SavedFederation) -> MethodState {
        MethodState::FedClust {
            federation_json: s.to_json(),
        }
    }

    fn evaluate(&self, s: &SavedFederation, ctx: &RoundCtx<'_>) -> Vec<f32> {
        evaluate_clients(ctx.fd, &ctx.template, |c| {
            s.cluster_states[s.outcome.labels[c]].as_slice()
        })
    }

    fn num_clusters(&self, s: &SavedFederation) -> Option<usize> {
        Some(s.cluster_states.len())
    }

    fn finish(&self, saved: SavedFederation, ctx: RoundCtx<'_>) -> TrainedFederation {
        TrainedFederation {
            method: *self,
            template: ctx.template,
            saved,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedclust_cluster::metrics::adjusted_rand_index;
    use fedclust_data::{DatasetProfile, FederatedDataset};
    use fedclust_fl::{run_federation, FlConfig, FlMethod, NoCheckpoints};

    fn two_group_fd(seed: u64, clients: usize) -> FederatedDataset {
        let groups: Vec<Vec<usize>> = (0..clients)
            .map(|c| {
                if c < clients / 2 {
                    (0..5).collect()
                } else {
                    (5..10).collect()
                }
            })
            .collect();
        FederatedDataset::build_grouped(
            DatasetProfile::FmnistLike,
            &groups,
            &fedclust_data::federated::FederatedConfig {
                num_clients: clients,
                samples_per_class: 40,
                seed,
            },
        )
    }

    #[test]
    fn one_shot_clustering_recovers_ground_truth() {
        let fd = two_group_fd(0, 8);
        let mut cfg = FlConfig::tiny(0);
        cfg.local_epochs = 2;
        let Ok((result, federation)) =
            run_federation(&FedClust::default(), &fd, &cfg, NoCheckpoints, None);
        let truth = fd.ground_truth_groups();
        let ari = adjusted_rand_index(&federation.saved.labels, &truth);
        assert!(
            ari > 0.8,
            "ARI {} labels {:?} truth {:?}",
            ari,
            federation.saved.labels,
            truth
        );
        assert_eq!(result.num_clusters, Some(2));
    }

    #[test]
    fn fedclust_beats_fedavg_under_label_skew() {
        let fd = two_group_fd(1, 8);
        let mut cfg = FlConfig::tiny(1);
        cfg.rounds = 5;
        let fedclust = FedClust::default().run(&fd, &cfg);
        let fedavg = fedclust_fl::methods::FedAvg.run(&fd, &cfg);
        assert!(
            fedclust.final_acc >= fedavg.final_acc,
            "FedClust {} vs FedAvg {}",
            fedclust.final_acc,
            fedavg.final_acc
        );
    }

    #[test]
    fn clustering_round_uploads_are_partial() {
        // FedClust's round-0 uplink must be far below one full model per
        // client; downstream rounds behave like FedAvg within clusters.
        let fd = two_group_fd(2, 6);
        let mut cfg = FlConfig::tiny(2);
        cfg.rounds = 1;
        let fedclust = FedClust::default().run(&fd, &cfg);
        assert!(fedclust.total_mb > 0.0);
        // Comparable FedAvg run with one extra round (FedClust's round 0
        // costs a broadcast + partial upload, less than a full round).
        let mut cfg2 = cfg;
        cfg2.rounds = 2;
        let fedavg = fedclust_fl::methods::FedAvg.run(&fd, &cfg2);
        assert!(fedclust.total_mb < fedavg.total_mb * 2.0);
    }

    #[test]
    fn detailed_run_exposes_cluster_models_and_representatives() {
        let fd = two_group_fd(3, 6);
        let cfg = FlConfig::tiny(3);
        let Ok((_, federation)) =
            run_federation(&FedClust::default(), &fd, &cfg, NoCheckpoints, None);
        let k = federation.saved.outcome.num_clusters;
        assert_eq!(federation.saved.cluster_states.len(), k);
        assert_eq!(federation.saved.representatives.len(), k);
        let upload = WeightSelection::FinalLayer.upload_len(&federation.template);
        for rep in &federation.saved.representatives {
            assert_eq!(rep.len(), upload);
        }
        assert_eq!(federation.saved.labels.len(), 6);
    }

    #[test]
    fn full_model_ablation_runs() {
        let fd = two_group_fd(4, 6);
        let cfg = FlConfig::tiny(4);
        let ablated = FedClust {
            selection: WeightSelection::FullModel,
            ..FedClust::default()
        };
        let r = ablated.run(&fd, &cfg);
        assert!(r.final_acc.is_finite());
    }
}
