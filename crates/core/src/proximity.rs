//! Warm-up training, partial-weight collection, and the Eq. 3 proximity
//! matrix.
//!
//! The key design choice of FedClust (paper §4.1): clients upload only the
//! final layer's weights + bias, which are (a) tiny compared to the full
//! model and (b) the weights most strongly tied to the local label
//! distribution (the paper's Fig. 1 observation, reproduced by this
//! crate's `fig1` bench harness).

use fedclust_cluster::ProximityMatrix;
use fedclust_data::FederatedDataset;
use fedclust_fl::engine::{train_replica, LocalJob};
use fedclust_fl::FlConfig;
use fedclust_nn::Model;
use fedclust_tensor::distance::{pairwise_matrix, Metric};
use rayon::prelude::*;

/// Which slice of the locally trained weights clients upload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WeightSelection {
    /// The final parameterised layer's weights + bias — FedClust's choice.
    FinalLayer,
    /// The full parameter vector — the ablation the paper argues against
    /// (larger uploads, *worse* similarity signal).
    FullModel,
    /// One specific parameter block (by index) — used by the Fig. 1
    /// layer-wise study.
    Block(usize),
}

impl WeightSelection {
    /// Extract the selected weights from a trained model.
    pub fn extract(&self, model: &Model) -> Vec<f32> {
        match self {
            WeightSelection::FinalLayer => model.final_layer_vec(),
            WeightSelection::FullModel => model.param_vec(),
            WeightSelection::Block(i) => {
                let blocks = model.param_blocks();
                model.block_vec(&blocks[*i])
            }
        }
    }

    /// Number of scalars this selection uploads, for a given model.
    pub fn upload_len(&self, model: &Model) -> usize {
        match self {
            WeightSelection::FinalLayer => model.final_layer_vec().len(),
            WeightSelection::FullModel => model.num_params(),
            WeightSelection::Block(i) => model.param_blocks()[*i].len,
        }
    }
}

/// Round-0 warm-up: every client trains the broadcast model θ⁰ for
/// `warmup_epochs` local epochs and returns the selected partial weights.
/// Runs clients in parallel; deterministic per `(cfg.seed, client)`.
pub fn collect_partial_weights(
    fd: &FederatedDataset,
    cfg: &FlConfig,
    template: &Model,
    init_state: &[f32],
    warmup_epochs: usize,
    selection: WeightSelection,
) -> Vec<Vec<f32>> {
    let clients: Vec<usize> = (0..fd.num_clients()).collect();
    collect_partial_weights_for(
        fd,
        cfg,
        template,
        init_state,
        warmup_epochs,
        selection,
        &clients,
    )
    .into_iter()
    .map(|(_, partial)| partial)
    .collect()
}

/// [`collect_partial_weights`] restricted to an explicit client list — the
/// fault-tolerant round 0 collects only from the clients the broadcast
/// actually reached. Results are `(client, partial)` pairs in `clients`
/// order, one for every requested client.
pub fn collect_partial_weights_for(
    fd: &FederatedDataset,
    cfg: &FlConfig,
    template: &Model,
    init_state: &[f32],
    warmup_epochs: usize,
    selection: WeightSelection,
    clients: &[usize],
) -> Vec<(usize, Vec<f32>)> {
    clients
        .par_iter()
        .map(|&client| {
            let job = LocalJob {
                start_state: init_state,
                epochs: warmup_epochs,
                client,
                round: 0, // warm-up is round 0
                prox_mu: None,
            };
            let (model, _) = train_replica(template, &fd.clients[client], cfg, job);
            (client, selection.extract(&model))
        })
        .collect()
}

/// Eq. 3: the m×m proximity matrix of pairwise distances between clients'
/// partial weight vectors, its rows computed in parallel on the pool.
pub fn proximity_matrix(weights: &[Vec<f32>], metric: Metric) -> ProximityMatrix {
    let n = weights.len();
    let full = pairwise_matrix(weights, metric);
    // Not `from_full`: its symmetry check rejects the NaN/∞ distances of
    // non-finite weights, which this function has always passed on.
    ProximityMatrix::from_fn(n, |i, j| full[i * n + j])
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedclust_data::DatasetProfile;
    use fedclust_fl::engine::init_model;

    fn two_group_fd(seed: u64) -> FederatedDataset {
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
                seed,
            },
        )
    }

    #[test]
    fn final_layer_upload_is_much_smaller_than_full() {
        let fd = two_group_fd(0);
        let cfg = FlConfig::tiny(0);
        let model = init_model(&fd, &cfg);
        let fl = WeightSelection::FinalLayer.upload_len(&model);
        let full = WeightSelection::FullModel.upload_len(&model);
        assert!(fl * 2 < full, "final {} full {}", fl, full);
    }

    #[test]
    fn same_group_clients_have_closer_final_layers() {
        let fd = two_group_fd(1);
        let mut cfg = FlConfig::tiny(1);
        cfg.local_epochs = 2;
        let template = init_model(&fd, &cfg);
        let init_state = template.state_vec();
        let weights = collect_partial_weights(
            &fd,
            &cfg,
            &template,
            &init_state,
            2,
            WeightSelection::FinalLayer,
        );
        let m = proximity_matrix(&weights, Metric::L2);
        // Mean intra-group distance must be below mean inter-group distance:
        // the core empirical claim of the paper (§3.3).
        let mut intra = Vec::new();
        let mut inter = Vec::new();
        for i in 0..6 {
            for j in (i + 1)..6 {
                if (i < 3) == (j < 3) {
                    intra.push(m.get(i, j));
                } else {
                    inter.push(m.get(i, j));
                }
            }
        }
        let mean = |v: &[f32]| v.iter().sum::<f32>() / v.len() as f32;
        assert!(
            mean(&intra) < mean(&inter),
            "intra {} inter {}",
            mean(&intra),
            mean(&inter)
        );
    }

    #[test]
    fn block_selection_extracts_named_blocks() {
        let fd = two_group_fd(2);
        let cfg = FlConfig::tiny(2);
        let model = init_model(&fd, &cfg);
        let blocks = model.param_blocks();
        for (i, b) in blocks.iter().enumerate() {
            let v = WeightSelection::Block(i).extract(&model);
            assert_eq!(v.len(), b.len);
        }
        // Final layer == last block.
        let last = WeightSelection::Block(blocks.len() - 1).extract(&model);
        assert_eq!(last, WeightSelection::FinalLayer.extract(&model));
    }

    #[test]
    fn collection_is_deterministic() {
        let fd = two_group_fd(3);
        let cfg = FlConfig::tiny(3);
        let template = init_model(&fd, &cfg);
        let s = template.state_vec();
        let a = collect_partial_weights(&fd, &cfg, &template, &s, 1, WeightSelection::FinalLayer);
        let b = collect_partial_weights(&fd, &cfg, &template, &s, 1, WeightSelection::FinalLayer);
        assert_eq!(a, b);
    }

    #[test]
    fn every_entry_is_the_metric_of_its_pair_non_finite_included() {
        let weights = vec![
            vec![0.0, 1.0, 2.0],
            vec![3.0, -1.0, 0.5],
            vec![f32::NAN, 0.0, 0.0],
            vec![f32::INFINITY, 0.0, 0.0],
        ];
        for metric in [Metric::L2, Metric::Cosine] {
            let m = proximity_matrix(&weights, metric);
            for i in 0..4 {
                for j in 0..4 {
                    let want = if i == j {
                        0.0
                    } else {
                        metric.eval(&weights[i.min(j)], &weights[i.max(j)])
                    };
                    assert_eq!(m.get(i, j).to_bits(), want.to_bits(), "({i}, {j})");
                }
            }
        }
    }
}
