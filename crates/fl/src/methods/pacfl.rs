//! PACFL (Vahidian et al. 2022): one-shot clustering by principal angles
//! between client data subspaces.
//!
//! Before federation each client runs a truncated SVD on its raw local data
//! matrix (features × samples) and sends the top-`p` left singular vectors
//! to the server. The server measures client similarity by the sum of
//! principal angles between subspaces, clusters with hierarchical
//! clustering, and then trains one FedAvg model per cluster.

use crate::checkpoint::{check_labels, check_len, wrong_state, CheckpointError, MethodState};
use crate::driver::{Method, RoundCtx};
use crate::engine::evaluate_clients;
use fedclust_cluster::hac::{agglomerative, Linkage};
use fedclust_cluster::ProximityMatrix;
use fedclust_data::{ClientData, FederatedDataset};
use fedclust_tensor::linalg::{subspace_distance_deg, truncated_left_singular_vectors};
use fedclust_tensor::Tensor;
use rayon::prelude::*;

/// PACFL with `P` principal vectors per client.
#[derive(Debug, Clone, Copy)]
pub struct Pacfl;

/// Number of principal vectors each client transmits (paper: p = 3).
const P: usize = 3;

impl Pacfl {
    /// One client's data subspace basis: top-`p` left singular vectors of
    /// the (features × samples) matrix of its raw training data.
    pub fn client_basis(&self, data: &ClientData) -> Tensor {
        let train = &data.train;
        let n = train.len();
        let d = train.sample_numel();
        // Build features × samples (each column is one flattened image).
        let mut m = vec![0.0f32; d * n];
        for s in 0..n {
            for f in 0..d {
                m[f * n + s] = train.images.data()[s * d + f];
            }
        }
        truncated_left_singular_vectors(&Tensor::from_vec([d, n], m), P)
    }

    /// Every client's [`Pacfl::client_basis`].
    pub fn client_bases(&self, fd: &FederatedDataset) -> Vec<Tensor> {
        fd.clients
            .par_iter()
            .map(|c| self.client_basis(c))
            .collect()
    }

    /// Cluster clients from their subspace bases, cutting the dendrogram
    /// at its largest gap. Returns labels.
    pub fn cluster(&self, bases: &[Tensor]) -> Vec<usize> {
        let matrix = ProximityMatrix::from_fn(bases.len(), |i, j| {
            subspace_distance_deg(&bases[i], &bases[j])
        });
        agglomerative(&matrix, Linkage::Average).largest_gap_cut().0
    }
}

/// What a PACFL run leaves on the server (and carries from round to
/// round): trained cluster states, the client→cluster assignment, and the
/// member subspace bases (so unseen clients can be matched by principal
/// angles, as PACFL prescribes).
pub struct PacflArtifacts {
    /// One trained state per cluster.
    pub states: Vec<Vec<f32>>,
    /// Cluster id per original client.
    pub labels: Vec<usize>,
    /// Each original client's subspace basis.
    pub bases: Vec<Tensor>,
}

impl PacflArtifacts {
    /// The cluster an unseen client with subspace `basis` joins: the one
    /// whose members' bases are nearest by mean subspace distance, an empty
    /// cluster being infinitely far; the first such cluster on a tie.
    pub fn nearest_cluster(&self, basis: &Tensor) -> usize {
        let mut best = (0, f32::INFINITY);
        for cluster in 0..self.states.len() {
            let mut sum = 0.0f32;
            let mut n = 0usize;
            for (_, b) in self
                .labels
                .iter()
                .zip(&self.bases)
                .filter(|(&l, _)| l == cluster)
            {
                sum += subspace_distance_deg(basis, b);
                n += 1;
            }
            let distance = if n == 0 {
                f32::INFINITY
            } else {
                sum / n as f32
            };
            if distance < best.1 {
                best = (cluster, distance);
            }
        }
        best.0
    }
}

impl Method for Pacfl {
    const NAME: &'static str = "PACFL";
    const DISTRIBUTES: bool = true;
    type State = PacflArtifacts;
    type Artifacts = PacflArtifacts;

    /// One-shot clustering before federation. The basis exchange is a
    /// reliable pre-federation step (PACFL assumes it), charged directly.
    fn init(&self, ctx: &mut RoundCtx<'_>) -> PacflArtifacts {
        let bases = self.client_bases(ctx.fd);
        let feature_dim = ctx.fd.channels * ctx.fd.height * ctx.fd.width;
        for b in &bases {
            // p vectors of d floats
            ctx.transport.meter_mut().up(b.dims()[1] * feature_dim);
        }
        let labels = self.cluster(&bases);
        let k = labels.iter().copied().max().unwrap_or(0) + 1;
        PacflArtifacts {
            states: vec![ctx.template.state_vec(); k],
            labels,
            bases,
        }
    }

    /// The subspace bases are recomputed on resume (they are deterministic
    /// functions of the raw client data), but the one-shot basis exchange
    /// is *not* re-charged: the restored meter already includes it.
    fn restore(
        &self,
        ctx: &RoundCtx<'_>,
        saved: MethodState,
    ) -> Result<PacflArtifacts, CheckpointError> {
        let MethodState::Clustered { states, labels } = saved else {
            return Err(wrong_state(Self::NAME, &saved));
        };
        check_len("cluster labels", labels.len(), ctx.fd.num_clients())?;
        for s in &states {
            check_len("cluster state", s.len(), ctx.template.state_len())?;
        }
        check_labels(&labels, states.len())?;
        Ok(PacflArtifacts {
            states,
            labels,
            bases: self.client_bases(ctx.fd),
        })
    }

    fn round(&self, s: &mut PacflArtifacts, ctx: &mut RoundCtx<'_>, round: usize) {
        ctx.cluster_round(&mut s.states, &s.labels, round);
    }

    fn snapshot(&self, s: &PacflArtifacts) -> MethodState {
        MethodState::Clustered {
            states: s.states.clone(),
            labels: s.labels.clone(),
        }
    }

    fn evaluate(&self, s: &PacflArtifacts, ctx: &RoundCtx<'_>) -> Vec<f32> {
        evaluate_clients(ctx.fd, &ctx.template, |c| s.states[s.labels[c]].as_slice())
    }

    fn num_clusters(&self, s: &PacflArtifacts) -> Option<usize> {
        Some(s.states.len())
    }

    fn finish(&self, s: PacflArtifacts, _: RoundCtx<'_>) -> PacflArtifacts {
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FlConfig;
    use crate::methods::FlMethod;
    use fedclust_cluster::metrics::adjusted_rand_index;
    use fedclust_data::{DatasetProfile, Partition};

    fn fd() -> FederatedDataset {
        FederatedDataset::build(
            DatasetProfile::FmnistLike,
            Partition::LabelSkew { fraction: 0.2 },
            &fedclust_data::federated::FederatedConfig {
                num_clients: 8,
                samples_per_class: 40,
                seed: 7,
            },
        )
    }

    #[test]
    fn subspace_clustering_recovers_two_groups() {
        // Two clean groups: clients 0–3 hold classes {0..5}, 4–7 hold {5..10}.
        let groups: Vec<Vec<usize>> = (0..8)
            .map(|c| {
                if c < 4 {
                    (0..5).collect()
                } else {
                    (5..10).collect()
                }
            })
            .collect();
        let fd = FederatedDataset::build_grouped(
            DatasetProfile::FmnistLike,
            &groups,
            &fedclust_data::federated::FederatedConfig {
                num_clients: 8,
                samples_per_class: 40,
                seed: 7,
            },
        );
        let pacfl = Pacfl;
        let bases = pacfl.client_bases(&fd);
        assert_eq!(bases.len(), 8);
        let labels = pacfl.cluster(&bases);
        let truth = fd.ground_truth_groups();
        // Data subspaces are driven by which classes a client holds, so the
        // recovered clustering should agree with the two-group ground truth.
        let ari = adjusted_rand_index(&labels, &truth);
        assert!(
            ari > 0.5,
            "ARI {} labels {:?} truth {:?}",
            ari,
            labels,
            truth
        );
    }

    #[test]
    fn an_unseen_client_never_joins_an_empty_cluster() {
        // Three clusters of the 8 clients, the middle one without members.
        let art = PacflArtifacts {
            states: vec![Vec::new(); 3],
            labels: (0..8).map(|c| 2 * (c % 2)).collect(),
            bases: Pacfl.client_bases(&fd()),
        };
        for basis in &art.bases {
            assert_ne!(art.nearest_cluster(basis), 1);
        }
    }

    #[test]
    fn pacfl_runs_end_to_end() {
        let fd = fd();
        let mut cfg = FlConfig::tiny(1);
        cfg.rounds = 3;
        let r = Pacfl.run(&fd, &cfg);
        assert!(r.final_acc.is_finite());
        assert!(r.num_clusters.unwrap() >= 1);
        assert!(r.total_mb > 0.0);
    }
}
