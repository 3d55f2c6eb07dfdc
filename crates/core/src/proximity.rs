//! Which partial weights clients upload, and the Eq. 3 proximity matrix.
//!
//! The key design choice of FedClust (paper §4.1): clients upload only the
//! final layer's weights + bias, which are (a) tiny compared to the full
//! model and (b) the weights most strongly tied to the local label
//! distribution (the paper's Fig. 1 observation, reproduced by this
//! crate's `fig1` bench harness).

use fedclust_cluster::ProximityMatrix;
use fedclust_data::FederatedDataset;
use fedclust_fl::engine::{train_replica, LocalJob, LocalRule};
use fedclust_fl::FlConfig;
use fedclust_nn::model::ParamBlock;
use fedclust_nn::Model;
use fedclust_tensor::distance::{Metric, Pairwise};
use rayon::prelude::*;
use std::ops::Range;

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
        self.select(model, &model.param_vec()).to_vec()
    }

    /// Where the selected weights sit in a state (or parameter) vector of
    /// `model`'s architecture, whose parameters are its prefix: the last
    /// parameter block, the whole prefix, or block `i`. A model without
    /// parameters has an empty final layer.
    pub fn range(&self, model: &Model) -> Range<usize> {
        let blocks = model.param_blocks();
        let block = |b: &ParamBlock| b.offset..b.offset + b.len;
        match self {
            WeightSelection::FinalLayer => blocks.last().map_or(0..0, block),
            WeightSelection::FullModel => 0..model.num_params(),
            WeightSelection::Block(i) => block(&blocks[*i]),
        }
    }

    /// The selected weights inside `state`, a state (or parameter) vector
    /// of `model`'s architecture: `state[self.range(model)]`.
    pub fn select<'s>(&self, model: &Model, state: &'s [f32]) -> &'s [f32] {
        &state[self.range(model)]
    }

    /// Number of scalars this selection uploads, for a given model.
    pub fn upload_len(&self, model: &Model) -> usize {
        self.range(model).len()
    }
}

/// Round 0's warm-up outside any transport: each of `clients` trains θ⁰
/// (`init_state`) for `warmup_epochs` local epochs, and its selected partial
/// weights come back as `(client, partial)` pairs in `clients` order.
/// The product warms up through [`crate::FedClust::round0`]; this copy is
/// kept only for `fedbench-trace`'s round-0 replay, its last caller, and
/// goes with that replay.
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
                rule: LocalRule::Sgd(None),
            };
            let (model, _) = train_replica(template, &fd.clients[client], cfg, job);
            (client, selection.extract(&model))
        })
        .collect()
}

/// Eq. 3: the m×m proximity matrix of pairwise distances between clients'
/// partial weight vectors, each entry the bits of [`Metric::eval`] on its
/// pair. The vectors are copied once into [`Pairwise`]'s lane panels; row
/// `i`'s upper triangle (`j > i`) is one pool task, run on the thread that
/// claimed it.
///
/// # Panics
/// Panics if two of the vectors differ in length.
pub fn proximity_matrix(weights: &[Vec<f32>], metric: Metric) -> ProximityMatrix {
    let n = weights.len();
    let pairwise = Pairwise::new(metric, weights);
    let rows: Vec<Vec<f32>> = (0..n).into_par_iter().map(|i| pairwise.row(i)).collect();
    // `from_fn` checks nothing: the NaN/∞ distances of non-finite weights
    // pass on, as they always have.
    ProximityMatrix::from_fn(n, |i, j| rows[i][j - i - 1])
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
        let weights = crate::FedClust::default().clean_partials(&fd, &cfg);
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

    /// What round 0 slices out of a returned state is what `extract` takes
    /// from the trained model, to the bit, for every selection and every
    /// architecture — ResNet-9's batch-norm statistics sit after the
    /// parameters in its state.
    #[test]
    fn selecting_from_a_state_is_extracting_from_its_model() {
        use fedclust_nn::models::ModelSpec;
        use fedclust_nn::optim::{Sgd, SgdConfig};
        for spec in [
            ModelSpec::Mlp { hidden: 16 },
            ModelSpec::LeNet5,
            ModelSpec::VggMini,
            ModelSpec::ResNet9,
        ] {
            let mut rng = fedclust_tensor::rng::derive(5, &[1]);
            let template = spec.build(3, 16, 16, 10, &mut rng);
            let mut model = template.clone();
            let mut opt = Sgd::new(SgdConfig {
                lr: 0.05,
                momentum: 0.9,
            });
            for step in 0..3 {
                let x = fedclust_tensor::init::randn([6, 3, 16, 16], &mut rng);
                let y: Vec<usize> = (0..6).map(|i| (i * 3 + step) % 10).collect();
                model.train_step(x, &y, &mut opt);
            }
            let state = model.state_vec();
            let blocks = (0..template.param_blocks().len()).map(WeightSelection::Block);
            let selections = [WeightSelection::FinalLayer, WeightSelection::FullModel];
            for selection in selections.into_iter().chain(blocks) {
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(selection.select(&template, &state)),
                    bits(&selection.extract(&model)),
                    "{spec:?} {selection:?}"
                );
            }
        }
    }

    #[test]
    fn collection_is_deterministic() {
        let fd = two_group_fd(3);
        let cfg = FlConfig::tiny(3);
        let method = crate::FedClust {
            warmup_epochs: 1,
            ..crate::FedClust::default()
        };
        let a = method.clean_partials(&fd, &cfg);
        let b = method.clean_partials(&fd, &cfg);
        assert_eq!(a, b);
    }

    /// Every entry to the bit, the diagonal zero and the matrix symmetric,
    /// on the empty input, a single vector and four vectors (two of them
    /// non-finite), for both metrics.
    #[test]
    fn every_entry_is_the_metric_of_its_pair_non_finite_included() {
        let four = vec![
            vec![0.0, 1.0, 2.0],
            vec![3.0, -1.0, 0.5],
            vec![f32::NAN, 0.0, 0.0],
            vec![f32::INFINITY, 0.0, 0.0],
        ];
        for weights in [vec![], four[..1].to_vec(), four] {
            for metric in [Metric::L2, Metric::Cosine] {
                let m = proximity_matrix(&weights, metric);
                let n = weights.len();
                assert_eq!(m.len(), n);
                for i in 0..n {
                    for j in 0..n {
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
}
