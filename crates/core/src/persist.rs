//! Persisting trained federations.
//!
//! A FedClust server must retain, beyond the cluster models themselves,
//! the per-cluster representative partial weights so newcomers can be
//! incorporated later (Algorithm 2). [`SavedFederation`] is the JSON
//! snapshot of everything the server needs, and with the [`FedClust`]
//! configuration that trained it restores to a fully working
//! [`TrainedFederation`] — model template included — in a fresh process.

use crate::algorithm::{FedClust, TrainedFederation};
use crate::clustering::ClusteringOutcome;
use fedclust_fl::checkpoint::{check_labels, check_len, CheckpointError};
use fedclust_fl::json::{self, Reader};
use fedclust_nn::models::ModelSpec;
use fedclust_tensor::rng::{derive, streams};

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

/// Snapshot of a trained FedClust federation.
#[derive(Debug, Clone)]
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
    /// Restore a working federation trained by `method`: rebuilds the model
    /// template from the spec/geometry and installs θ⁰ in it. The snapshot
    /// does not record the configuration, so the caller names the one the
    /// run used.
    ///
    /// # Errors
    /// Returns a descriptive [`RestoreError`] when the snapshot fails
    /// `SavedFederation::check` against the rebuilt template (corrupted
    /// file or changed code).
    pub fn restore(self, method: FedClust) -> Result<TrainedFederation, RestoreError> {
        let (c, h, w, classes) = self.geometry;
        // The RNG only seeds throwaway initial weights; every parameter is
        // overwritten from the snapshot below.
        let mut rng = derive(0, &[streams::MODEL_INIT]);
        let mut template = self.model_spec.build(c, h, w, classes, &mut rng);
        self.check(template.state_len())
            .map_err(|e| RestoreError(e.to_string()))?;
        template.set_state_vec(&self.init_state);
        Ok(TrainedFederation {
            method,
            template,
            saved: self,
        })
    }

    /// What every reader of a snapshot checks before trusting it: θ⁰ and
    /// each cluster state hold `state_len` values, there are
    /// k = `outcome.num_clusters.max(1)` cluster states and representatives,
    /// every label names one of the k clusters, and the snapshot's two
    /// copies of the assignment (`labels`, `outcome.labels`) agree.
    pub(crate) fn check(&self, state_len: usize) -> Result<(), CheckpointError> {
        check_len("initial state", self.init_state.len(), state_len)?;
        let k = self.outcome.num_clusters.max(1);
        check_len("cluster states", self.cluster_states.len(), k)?;
        check_len("representatives", self.representatives.len(), k)?;
        for s in &self.cluster_states {
            check_len("cluster state", s.len(), state_len)?;
        }
        check_labels(&self.outcome.labels, k)?;
        if self.labels != self.outcome.labels {
            return Err(CheckpointError::Corrupt(
                "the snapshot's two copies of the cluster labels disagree".into(),
            ));
        }
        Ok(())
    }

    /// The snapshot as compact JSON: the fields in declaration order,
    /// `model_spec` externally tagged (`"LeNet5"`, `{"Mlp":{"hidden":32}}`),
    /// `geometry` a 4-element array, floats under [`fedclust_fl::json`]'s
    /// rule.
    pub fn to_json(&self) -> String {
        json::compact(|w| {
            w.object(|w| {
                let spec = w.field("model_spec");
                match self.model_spec {
                    ModelSpec::Mlp { hidden } => {
                        spec.object(|w| w.field("Mlp").object(|w| w.field("hidden").usize(hidden)))
                    }
                    ModelSpec::LeNet5 => spec.str("LeNet5"),
                    ModelSpec::VggMini => spec.str("VggMini"),
                    ModelSpec::ResNet9 => spec.str("ResNet9"),
                }
                let (c, h, wd, classes) = self.geometry;
                w.field("geometry").usizes(&[c, h, wd, classes]);
                w.field("init_state").f32s(&self.init_state);
                w.field("labels").usizes(&self.labels);
                w.field("cluster_states")
                    .array(&self.cluster_states, |w, s| w.f32s(s));
                w.field("representatives")
                    .array(&self.representatives, |w, s| w.f32s(s));
                w.field("outcome").object(|w| {
                    w.field("labels").usizes(&self.outcome.labels);
                    w.field("num_clusters").usize(self.outcome.num_clusters);
                    w.field("lambda").f32(self.outcome.lambda);
                });
            })
        })
    }

    /// Read what [`SavedFederation::to_json`] writes.
    ///
    /// # Errors
    /// Any other text, including `null` where a float belongs (what
    /// `to_json` writes for NaN and ±∞), is an error naming the byte.
    pub fn from_json(text: &str) -> Result<Self, String> {
        json::read(text, |r| {
            r.object(|r| {
                Ok(SavedFederation {
                    model_spec: read_model_spec(r.field("model_spec")?)?,
                    geometry: match *r.field("geometry")?.array(Reader::usize)? {
                        [c, h, w, classes] => (c, h, w, classes),
                        _ => return Err("geometry must have 4 entries".into()),
                    },
                    init_state: r.field("init_state")?.array(Reader::f32)?,
                    labels: r.field("labels")?.array(Reader::usize)?,
                    cluster_states: r.field("cluster_states")?.array(|r| r.array(Reader::f32))?,
                    representatives: r
                        .field("representatives")?
                        .array(|r| r.array(Reader::f32))?,
                    outcome: r.field("outcome")?.object(|r| {
                        Ok(ClusteringOutcome {
                            labels: r.field("labels")?.array(Reader::usize)?,
                            num_clusters: r.field("num_clusters")?.usize()?,
                            lambda: r.field("lambda")?.f32()?,
                        })
                    })?,
                })
            })
        })
    }
}

/// A `ModelSpec` as [`SavedFederation::to_json`] writes it.
fn read_model_spec(r: &mut Reader<'_>) -> Result<ModelSpec, String> {
    if r.at_object() {
        let hidden = r.object(|r| r.field("Mlp")?.object(|r| r.field("hidden")?.usize()))?;
        return Ok(ModelSpec::Mlp { hidden });
    }
    match r.name()? {
        "LeNet5" => Ok(ModelSpec::LeNet5),
        "VggMini" => Ok(ModelSpec::VggMini),
        "ResNet9" => Ok(ModelSpec::ResNet9),
        other => Err(format!("unknown model spec `{}`", other)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::newcomer::assign_cluster;
    use fedclust_data::{DatasetProfile, FederatedDataset};
    use fedclust_fl::{run_federation, FlConfig, NoCheckpoints};

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
        let saved = &federation.saved;
        let back = SavedFederation::from_json(&saved.to_json()).unwrap();
        assert_eq!(back.labels, saved.labels);
        assert_eq!(back.cluster_states, saved.cluster_states);
        assert_eq!(back.representatives, saved.representatives);
        assert_eq!(back.outcome, saved.outcome);
    }

    #[test]
    fn restored_federation_assigns_newcomers_identically() {
        let federation = trained();
        let restored = SavedFederation::from_json(&federation.saved.to_json())
            .unwrap()
            .restore(federation.method)
            .unwrap();
        // Probe with each representative: assignments must match the
        // original federation's.
        for rep in &federation.saved.representatives {
            assert_eq!(
                assign_cluster(&federation, rep),
                assign_cluster(&restored, rep)
            );
        }
        // The restored template carries θ⁰ exactly, and the configuration
        // is the one named.
        assert_eq!(restored.template.state_vec(), federation.saved.init_state);
        assert_eq!(restored.method, federation.method);
    }

    #[test]
    fn corrupted_snapshot_is_rejected() {
        let federation = trained();
        let method = federation.method;
        let snapshot = || federation.saved.clone();

        let mut saved = snapshot();
        saved.init_state.pop();
        let err = saved.restore(method).err().expect("truncated init_state");
        assert!(err.to_string().contains("initial state"), "{}", err);

        let mut saved = snapshot();
        saved.cluster_states.pop();
        assert!(saved.restore(method).is_err(), "missing cluster state");

        let mut saved = snapshot();
        saved.representatives.pop();
        assert!(saved.restore(method).is_err(), "missing representative");

        let mut saved = snapshot();
        if let Some(s) = saved.cluster_states.first_mut() {
            s.pop();
        }
        assert!(saved.restore(method).is_err(), "truncated cluster state");

        let mut saved = snapshot();
        saved.labels[0] = 999;
        assert!(saved.restore(method).is_err(), "out-of-range label");

        let mut saved = snapshot();
        saved.outcome.labels[0] = 999;
        assert!(saved.restore(method).is_err(), "out-of-range outcome label");

        // Both copies in range, but not the same assignment: restoring
        // would hand newcomers one clustering and training another.
        let k = federation.saved.outcome.num_clusters;
        assert!(k >= 2, "the fixture's two groups cluster apart");
        let mut saved = snapshot();
        saved.labels[0] = (saved.labels[0] + 1) % k;
        let err = saved
            .restore(method)
            .err()
            .expect("disagreeing label copies");
        assert!(err.to_string().contains("disagree"), "{}", err);
    }

    #[test]
    fn invalid_json_is_an_error() {
        assert!(SavedFederation::from_json("{not json").is_err());
    }
}
