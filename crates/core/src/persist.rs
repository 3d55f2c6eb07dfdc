//! Persisting trained federations.
//!
//! A FedClust server must retain, beyond the cluster models themselves,
//! the per-cluster representative partial weights so newcomers can be
//! incorporated later (Algorithm 2). [`SavedFederation`] is the
//! serializable snapshot of everything the server needs, and it restores
//! to a fully working [`TrainedFederation`] — model template included —
//! in a fresh process.

use crate::algorithm::TrainedFederation;
use crate::clustering::ClusteringOutcome;
use fedclust_nn::models::ModelSpec;
use fedclust_tensor::rng::{derive, streams};
use serde::{Deserialize, Serialize};

/// Why a [`SavedFederation`] could not be restored: the snapshot is
/// internally inconsistent or does not match the architecture it claims.
#[derive(Debug, Clone, PartialEq)]
pub struct RestoreError(String);

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "corrupt federation snapshot: {}", self.0)
    }
}

impl std::error::Error for RestoreError {}

/// Serializable snapshot of a trained FedClust federation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SavedFederation {
    /// Architecture to rebuild the template from.
    pub model_spec: ModelSpec,
    /// Dataset geometry `(channels, height, width, classes)`.
    pub geometry: (usize, usize, usize, usize),
    /// The initial broadcast state θ⁰.
    pub init_state: Vec<f32>,
    /// Cluster id per original client.
    pub labels: Vec<usize>,
    /// One trained state vector per cluster.
    pub cluster_states: Vec<Vec<f32>>,
    /// Per-cluster representative partial weights (Algorithm 2's anchors).
    pub representatives: Vec<Vec<f32>>,
    /// The clustering outcome (λ, cluster count).
    pub outcome: ClusteringOutcome,
}

impl SavedFederation {
    /// Snapshot a trained federation.
    pub fn from_federation(federation: &TrainedFederation) -> Self {
        SavedFederation {
            model_spec: federation.model_spec,
            geometry: federation.geometry,
            init_state: federation.init_state.clone(),
            labels: federation.labels.clone(),
            cluster_states: federation.cluster_states.clone(),
            representatives: federation.representatives.clone(),
            outcome: federation.outcome.clone(),
        }
    }

    /// Restore a working federation: rebuilds the model template from the
    /// spec/geometry and re-installs all saved state.
    ///
    /// # Errors
    /// Returns a descriptive [`RestoreError`] when the snapshot is
    /// internally inconsistent (corrupted file or changed code): state
    /// vectors that do not match the rebuilt template's length, a cluster
    /// count that disagrees between the states, representatives and
    /// outcome, or labels pointing at nonexistent clusters.
    pub fn restore(&self) -> Result<TrainedFederation, RestoreError> {
        let (c, h, w, classes) = self.geometry;
        // The RNG only seeds throwaway initial weights; every parameter is
        // overwritten from the snapshot below.
        let mut rng = derive(0, &[streams::MODEL_INIT]);
        let mut template = self.model_spec.build(c, h, w, classes, &mut rng);
        if template.state_len() != self.init_state.len() {
            return Err(RestoreError(format!(
                "initial state has {} values but the rebuilt architecture needs {}",
                self.init_state.len(),
                template.state_len()
            )));
        }
        let k = self.outcome.num_clusters.max(1);
        if self.cluster_states.len() != k {
            return Err(RestoreError(format!(
                "{} cluster states for an outcome with {} clusters",
                self.cluster_states.len(),
                k
            )));
        }
        if self.representatives.len() != k {
            return Err(RestoreError(format!(
                "{} representatives for an outcome with {} clusters",
                self.representatives.len(),
                k
            )));
        }
        if let Some(bad) = self
            .cluster_states
            .iter()
            .find(|s| s.len() != template.state_len())
        {
            return Err(RestoreError(format!(
                "cluster state has {} values but the rebuilt architecture needs {}",
                bad.len(),
                template.state_len()
            )));
        }
        if let Some(bad) = self.labels.iter().find(|&&l| l >= k) {
            return Err(RestoreError(format!(
                "label {} points at a nonexistent cluster (only {} exist)",
                bad, k
            )));
        }
        template.set_state_vec(&self.init_state);
        Ok(TrainedFederation {
            template,
            model_spec: self.model_spec,
            geometry: self.geometry,
            init_state: self.init_state.clone(),
            labels: self.labels.clone(),
            cluster_states: self.cluster_states.clone(),
            representatives: self.representatives.clone(),
            outcome: self.outcome.clone(),
        })
    }

    /// Serialize to a JSON string.
    pub fn to_json(&self) -> String {
        // fedlint::allow(no-panic-paths): the snapshot is plain owned data (numbers, strings, vecs) with no fallible Serialize impls, so serialization cannot fail
        serde_json::to_string(self).expect("federation snapshot serializes")
    }

    /// Deserialize from a JSON string.
    pub fn from_json(json: &str) -> Result<Self, String> {
        serde_json::from_str(json).map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::FedClust;
    use crate::newcomer::assign_cluster;
    use fedclust_data::{DatasetProfile, FederatedDataset};
    use fedclust_fl::{run_federation, FlConfig, NoCheckpoints};
    use fedclust_tensor::distance::Metric;

    fn trained() -> TrainedFederation {
        let groups: Vec<Vec<usize>> = (0..6)
            .map(|c| {
                if c < 3 {
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
                num_clients: 6,
                samples_per_class: 30,
                train_fraction: 0.8,
                seed: 13,
            },
        );
        let mut cfg = FlConfig::tiny(13);
        cfg.rounds = 2;
        let Ok((_, federation)) =
            run_federation(&FedClust::default(), &fd, &cfg, NoCheckpoints, None);
        federation
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let federation = trained();
        let saved = SavedFederation::from_federation(&federation);
        let json = saved.to_json();
        let back = SavedFederation::from_json(&json).unwrap();
        assert_eq!(back.labels, federation.labels);
        assert_eq!(back.cluster_states, federation.cluster_states);
        assert_eq!(back.representatives, federation.representatives);
        assert_eq!(back.outcome, federation.outcome);
    }

    #[test]
    fn restored_federation_assigns_newcomers_identically() {
        let federation = trained();
        let saved = SavedFederation::from_federation(&federation);
        let restored = SavedFederation::from_json(&saved.to_json())
            .unwrap()
            .restore()
            .unwrap();
        // Probe with each representative: assignments must match the
        // original federation's.
        for rep in &federation.representatives {
            assert_eq!(
                assign_cluster(&federation, rep, Metric::L2),
                assign_cluster(&restored, rep, Metric::L2)
            );
        }
        // The restored template carries θ⁰ exactly.
        assert_eq!(restored.template.state_vec(), federation.init_state);
    }

    #[test]
    fn corrupted_snapshot_is_rejected() {
        let federation = trained();

        let mut saved = SavedFederation::from_federation(&federation);
        saved.init_state.pop();
        let err = saved.restore().err().expect("truncated init_state");
        assert!(err.to_string().contains("initial state"), "{}", err);

        let mut saved = SavedFederation::from_federation(&federation);
        saved.cluster_states.pop();
        assert!(saved.restore().is_err(), "missing cluster state");

        let mut saved = SavedFederation::from_federation(&federation);
        saved.representatives.pop();
        assert!(saved.restore().is_err(), "missing representative");

        let mut saved = SavedFederation::from_federation(&federation);
        if let Some(s) = saved.cluster_states.first_mut() {
            s.pop();
        }
        assert!(saved.restore().is_err(), "truncated cluster state");

        let mut saved = SavedFederation::from_federation(&federation);
        saved.labels[0] = 999;
        assert!(saved.restore().is_err(), "out-of-range label");
    }

    #[test]
    fn invalid_json_is_an_error() {
        assert!(SavedFederation::from_json("{not json").is_err());
    }
}
