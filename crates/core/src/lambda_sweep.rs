//! The λ sweep behind Fig. 4: the generalization ↔ personalization dial.
//!
//! One warm-up + clustering pass ([`dendrogram`]) produces a dendrogram;
//! the λ grid is read off it, and every λ cut of it is then trained and
//! evaluated. Large λ merges everyone into
//! one cluster (FedAvg-like, fully global); tiny λ leaves every client in
//! its own cluster (Local-like, fully personalized).

use crate::algorithm::FedClust;
use crate::clustering::{outcome_from_dendrogram, ClusteringOutcome, LambdaSelect};
use crate::proximity::proximity_matrix;
use fedclust_cluster::hac::{agglomerative, Dendrogram};
use fedclust_data::FederatedDataset;
use fedclust_fl::checkpoint::{wrong_state, CheckpointError, MethodState};
use fedclust_fl::driver::{run_federation, Method, NoCheckpoints, RoundCtx};
use fedclust_fl::engine::evaluate_clients;
use fedclust_fl::FlConfig;

/// One point of the λ sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LambdaPoint {
    /// The threshold λ.
    pub lambda: f32,
    /// Number of clusters formed at this λ.
    pub num_clusters: usize,
    /// Final average local test accuracy.
    pub final_acc: f64,
}

/// The one warm-up + clustering pass of a sweep: `method`'s fault-free
/// round 0 ([`FedClust::clean_partials`]) into a dendrogram.
pub fn dendrogram(fd: &FederatedDataset, cfg: &FlConfig, method: &FedClust) -> Dendrogram {
    let partials = method.clean_partials(fd, cfg);
    agglomerative(&proximity_matrix(&partials, method.metric), method.linkage)
}

/// Evenly spaced λ values spanning the dendrogram's merge-distance range
/// (plus a sub-minimum and a super-maximum point so the sweep reaches both
/// the all-singleton and the single-cluster regimes).
pub fn lambda_grid(dendro: &Dendrogram, points: usize) -> Vec<f32> {
    let merges = dendro.merges();
    let (Some(first), Some(last)) = (merges.first(), merges.last()) else {
        return vec![1.0];
    };
    let (lo, hi) = (first.distance, last.distance);
    let mut grid = vec![lo * 0.5];
    let steps = points.saturating_sub(2).max(1);
    for i in 0..=steps {
        grid.push(lo + (hi - lo) * i as f32 / steps as f32 + 1e-6);
    }
    grid.push(hi * 1.5 + 1.0);
    grid
}

/// FedClust's training rounds over a clustering that is already given: one
/// λ cut of the sweep's dendrogram. Never checkpointed, so never resumed.
struct Cut<'a>(&'a ClusteringOutcome);

impl Method for Cut<'_> {
    const NAME: &'static str = "FedClust";
    type State = Vec<Vec<f32>>;
    type Artifacts = ();

    fn init(&self, ctx: &mut RoundCtx<'_>) -> Vec<Vec<f32>> {
        vec![ctx.template.state_vec(); self.0.num_clusters.max(1)]
    }

    fn restore(
        &self,
        _: &RoundCtx<'_>,
        saved: MethodState,
    ) -> Result<Vec<Vec<f32>>, CheckpointError> {
        Err(wrong_state("a λ cut", &saved))
    }

    fn round(&self, states: &mut Vec<Vec<f32>>, ctx: &mut RoundCtx<'_>, round: usize) {
        ctx.cluster_round(states, &self.0.labels, round + 1);
    }

    fn snapshot(&self, states: &Vec<Vec<f32>>) -> MethodState {
        MethodState::Clustered {
            states: states.clone(),
            labels: self.0.labels.clone(),
        }
    }

    fn evaluate(&self, states: &Vec<Vec<f32>>, ctx: &RoundCtx<'_>) -> Vec<f32> {
        evaluate_clients(ctx.fd, &ctx.template, |c| {
            states[self.0.labels[c]].as_slice()
        })
    }

    fn num_clusters(&self, states: &Vec<Vec<f32>>) -> Option<usize> {
        Some(states.len())
    }

    fn finish(&self, _: Vec<Vec<f32>>, _: RoundCtx<'_>) {}
}

/// Run the sweep: train and evaluate each λ cut of `dendro`.
pub fn sweep(
    fd: &FederatedDataset,
    cfg: &FlConfig,
    dendro: &Dendrogram,
    lambdas: &[f32],
) -> Vec<LambdaPoint> {
    // Only the final accuracy of a cut is reported: evaluate at the end.
    let cfg = FlConfig {
        eval_every: cfg.rounds.max(1),
        ..*cfg
    };
    lambdas
        .iter()
        .map(|&lambda| {
            let outcome = outcome_from_dendrogram(dendro, LambdaSelect::Fixed(lambda));
            // Each λ cut trains under the same fault plan; the sweep only
            // reports accuracies, so the per-cut comm meter is discarded.
            let Ok((result, ())) = run_federation(&Cut(&outcome), fd, &cfg, NoCheckpoints, None);
            LambdaPoint {
                lambda,
                num_clusters: outcome.num_clusters.max(1),
                final_acc: result.final_acc,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedclust_data::DatasetProfile;

    fn two_group_fd() -> FederatedDataset {
        let groups: Vec<Vec<usize>> = (0..6)
            .map(|c| {
                if c < 3 {
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
                num_clients: 6,
                samples_per_class: 30,
                train_fraction: 0.8,
                seed: 5,
            },
        )
    }

    /// The sweep's dendrogram is cut from the round 0 a run trains from:
    /// at the method's own λ rule it gives the run's clustering.
    #[test]
    fn the_sweep_clusters_the_round_0_a_run_trains_from() {
        let fd = two_group_fd();
        let cfg = FlConfig::tiny(5);
        let m = FedClust::default();
        let round0_only = FlConfig { rounds: 0, ..cfg };
        let Ok((_, federation)) = run_federation(&m, &fd, &round0_only, NoCheckpoints, None);
        let swept = outcome_from_dendrogram(&dendrogram(&fd, &cfg, &m), m.lambda);
        assert_eq!(swept, federation.saved.outcome);
    }

    /// The sweep's round 0 ignores the run's codec and fault flags: its
    /// partials are the plain config's, though the same round 0 over the
    /// lossy, quantizing link delivers others.
    #[test]
    fn clean_partials_ignore_the_codec_and_the_faults() {
        let fd = two_group_fd();
        let plain = FlConfig::tiny(5);
        let mut faulty = plain;
        faulty.codec = fedclust_fl::CodecSpec::parse("delta+q8").unwrap();
        faulty.faults.uplink_loss = 0.3;
        let m = FedClust::default();
        let clean = m.clean_partials(&fd, &plain);
        assert_eq!(clean.len(), fd.num_clients());
        assert_eq!(m.clean_partials(&fd, &faulty), clean);

        let trainer = fedclust_fl::engine::InProcessTrainer::new(&fd, &faulty);
        let (_, delivered) = m.round0(&mut RoundCtx::new(&fd, &faulty, &trainer));
        assert_ne!(delivered, clean, "the faulty link changes what arrives");
    }

    #[test]
    fn sweep_cluster_counts_decrease_with_lambda() {
        let fd = two_group_fd();
        let mut cfg = FlConfig::tiny(5);
        cfg.rounds = 2;
        let dendro = dendrogram(&fd, &cfg, &FedClust::default());
        let grid = lambda_grid(&dendro, 4);
        assert!(grid.len() >= 3);
        let points = sweep(&fd, &cfg, &dendro, &grid);
        for w in points.windows(2) {
            assert!(
                w[0].num_clusters >= w[1].num_clusters,
                "λ {} → {} clusters then λ {} → {}",
                w[0].lambda,
                w[0].num_clusters,
                w[1].lambda,
                w[1].num_clusters
            );
        }
        // Extremes: all-singleton at the low end, one cluster at the top.
        assert_eq!(points.first().unwrap().num_clusters, 6);
        assert_eq!(points.last().unwrap().num_clusters, 1);
    }
}
