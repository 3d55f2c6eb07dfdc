//! Table 6: average local test accuracy of *newcomer* clients that join
//! after federation (non-IID label skew 20 %).
//!
//! Setup mirrors the paper: 80 % of clients federate; the remaining 20 %
//! join afterwards, receive a model according to each method's protocol,
//! personalize for 5 epochs where the method prescribes it (cluster and
//! personalized methods), and are evaluated on their local test sets.
//! Global baselines hand over the global model unpersonalized, as in the
//! paper. CFL is omitted from this table, as in the paper.

use crate::scale::Knobs;
use fedclust::newcomer::incorporate_all;
use fedclust::proximity::WeightSelection;
use fedclust::FedClust;
use fedclust_data::{ClientData, DatasetProfile, FederatedDataset, Partition};
use fedclust_fl::engine::{init_model, local_train};
use fedclust_fl::methods::{FedAvg, FedNova, FedProx, Ifca, LgFedAvg, Pacfl, PerFedAvg};
use fedclust_fl::metrics::mean_std;
use fedclust_fl::{run_federation, FlConfig, Method, NoCheckpoints};
use fedclust_nn::optim::{Sgd, SgdConfig};
use fedclust_nn::Model;
use fedclust_tensor::distance::Metric;
use fedclust_tensor::linalg::subspace_distance_deg;

const PERSONALIZE_EPOCHS: usize = 5;

/// Start from `state`, personalize `epochs` on the newcomer's train split,
/// and return local test accuracy.
fn personalize_and_eval(
    template: &Model,
    state: &[f32],
    nc: &ClientData,
    cfg: &FlConfig,
    epochs: usize,
    id: usize,
) -> f32 {
    let mut model = template.clone();
    model.set_state_vec(state);
    if epochs > 0 {
        let mut opt = Sgd::new(SgdConfig {
            lr: cfg.lr,
            momentum: 0.5, // the paper's personalized-method momentum
            weight_decay: cfg.weight_decay,
        });
        local_train(
            &mut model,
            nc,
            &mut opt,
            epochs,
            cfg.batch_size,
            cfg.seed,
            3_000_000 + id,
            0,
        );
    }
    let idx: Vec<usize> = (0..nc.test.len()).collect();
    if idx.is_empty() {
        return 0.0;
    }
    let (x, y) = nc.test.batch(&idx);
    model.evaluate(x, &y).1
}

/// What a plain in-process run of `method` leaves on the server.
fn artifacts<M: Method>(method: &M, fd: &FederatedDataset, cfg: &FlConfig) -> M::Artifacts {
    let Ok((_, artifacts)) = run_federation(method, fd, cfg, NoCheckpoints, None);
    artifacts
}

fn mean(v: &[f32]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.iter().map(|&x| x as f64).sum::<f64>() / v.len() as f64
}

/// The table's rows (the paper's ten methods without CFL).
pub const METHODS: [&str; 9] = [
    "Local",
    "FedAvg",
    "FedProx",
    "FedNova",
    "LG",
    "PerFedAvg",
    "IFCA",
    "PACFL",
    "FedClust",
];

/// Newcomer accuracies: `[method][dataset]` = one mean over the newcomers
/// per seed, methods in [`METHODS`] order, datasets in
/// `DatasetProfile::ALL` order.
pub struct Newcomers(Vec<Vec<Vec<f64>>>);

/// Federate 80 % of the clients under every method, then incorporate the
/// other 20 %.
pub fn run(knobs: &Knobs) -> Newcomers {
    let partition = Partition::LabelSkew { fraction: 0.2 };
    let mut accs: Vec<Vec<Vec<f64>>> =
        vec![vec![Vec::new(); DatasetProfile::ALL.len()]; METHODS.len()];

    for (di, profile) in DatasetProfile::ALL.into_iter().enumerate() {
        for &seed in &knobs.seeds() {
            let scale = knobs.scale(profile, seed);
            let full = FederatedDataset::build(profile, partition, &scale.federated);
            let n_new = (full.num_clients() / 5).max(1);
            let (fd, newcomers) = full.split_newcomers(n_new);
            let cfg = scale.fl;
            let template = init_model(&fd, &cfg);
            let init_state = template.state_vec();
            eprintln!(
                "[table6] {} seed {}: {} federated, {} newcomers",
                profile.name(),
                seed,
                fd.num_clients(),
                newcomers.len()
            );

            let mut record = |mi: usize, vals: Vec<f32>| {
                accs[mi][di].push(mean(&vals));
            };

            // Local: newcomers train alone from θ⁰ with a budget comparable
            // to a federated client's expected training.
            let budget = ((cfg.rounds as f32 * cfg.sample_rate * cfg.local_epochs as f32).round()
                as usize)
                .max(1);
            let local: Vec<f32> = newcomers
                .iter()
                .enumerate()
                .map(|(i, nc)| personalize_and_eval(&template, &init_state, nc, &cfg, budget, i))
                .collect();
            record(0, local);

            // Global baselines: newcomers evaluate the global model directly.
            for (mi, global) in [
                (1, artifacts(&FedAvg, &fd, &cfg)),
                (2, artifacts(&FedProx { mu: 0.01 }, &fd, &cfg)),
                (3, artifacts(&FedNova, &fd, &cfg)),
            ] {
                let vals: Vec<f32> = newcomers
                    .iter()
                    .enumerate()
                    .map(|(i, nc)| personalize_and_eval(&template, &global, nc, &cfg, 0, i))
                    .collect();
                record(mi, vals);
            }

            // LG: newcomer uses fresh local layers + trained global head.
            {
                let art = artifacts(&LgFedAvg::default(), &fd, &cfg);
                let mut state = init_state.clone();
                state[art.split..].copy_from_slice(&art.global_part);
                let vals: Vec<f32> = newcomers
                    .iter()
                    .enumerate()
                    .map(|(i, nc)| {
                        personalize_and_eval(&template, &state, nc, &cfg, PERSONALIZE_EPOCHS, i)
                    })
                    .collect();
                record(4, vals);
            }

            // Per-FedAvg: personalize the meta-model.
            {
                let global = artifacts(&PerFedAvg::default(), &fd, &cfg);
                let vals: Vec<f32> = newcomers
                    .iter()
                    .enumerate()
                    .map(|(i, nc)| {
                        personalize_and_eval(&template, &global, nc, &cfg, PERSONALIZE_EPOCHS, i)
                    })
                    .collect();
                record(5, vals);
            }

            // IFCA: newcomer picks the best of the k models by train loss.
            {
                let states = artifacts(&Ifca::default(), &fd, &cfg);
                let vals: Vec<f32> = newcomers
                    .iter()
                    .enumerate()
                    .map(|(i, nc)| {
                        let best = (0..states.len())
                            .min_by(|&a, &b| {
                                let idx: Vec<usize> = (0..nc.train.len()).collect();
                                let (x, y) = nc.train.batch(&idx);
                                let la = {
                                    let mut m = template.clone();
                                    m.set_state_vec(&states[a]);
                                    m.evaluate(x.clone(), &y).0
                                };
                                let lb = {
                                    let mut m = template.clone();
                                    m.set_state_vec(&states[b]);
                                    m.evaluate(x, &y).0
                                };
                                la.partial_cmp(&lb).unwrap()
                            })
                            .unwrap_or(0);
                        personalize_and_eval(
                            &template,
                            &states[best],
                            nc,
                            &cfg,
                            PERSONALIZE_EPOCHS,
                            i,
                        )
                    })
                    .collect();
                record(6, vals);
            }

            // PACFL: newcomer's subspace vs member subspaces per cluster.
            {
                let pacfl = Pacfl::default();
                let art = artifacts(&pacfl, &fd, &cfg);
                let nc_fd_bases = {
                    // Compute newcomer bases via a temporary dataset view.
                    let tmp = FederatedDataset {
                        clients: newcomers.clone(),
                        ..fd.clone()
                    };
                    pacfl.client_bases(&tmp)
                };
                let k = art.states.len();
                let vals: Vec<f32> = newcomers
                    .iter()
                    .enumerate()
                    .map(|(i, nc)| {
                        let best = (0..k)
                            .min_by(|&a, &b| {
                                let da = cluster_distance(&nc_fd_bases[i], a, &art);
                                let db = cluster_distance(&nc_fd_bases[i], b, &art);
                                da.partial_cmp(&db).unwrap()
                            })
                            .unwrap_or(0);
                        personalize_and_eval(
                            &template,
                            &art.states[best],
                            nc,
                            &cfg,
                            PERSONALIZE_EPOCHS,
                            i,
                        )
                    })
                    .collect();
                record(7, vals);
            }

            // FedClust: Algorithm 2.
            {
                let federation = artifacts(&FedClust::default(), &fd, &cfg);
                let outcomes = incorporate_all(
                    &federation,
                    &newcomers,
                    &cfg,
                    WeightSelection::FinalLayer,
                    Metric::L2,
                    1,
                    PERSONALIZE_EPOCHS,
                );
                record(8, outcomes.iter().map(|o| o.accuracy).collect());
            }
        }
    }

    Newcomers(accs)
}

impl Newcomers {
    /// Mean over seeds of one method's newcomer accuracy per dataset.
    pub fn means(&self, method: &str) -> Vec<f64> {
        let mi = METHODS
            .iter()
            .position(|&m| m == method)
            .expect("a Table 6 method");
        self.0[mi].iter().map(|xs| mean_std(xs).0).collect()
    }

    /// Print Table 6.
    pub fn print(&self) {
        println!(
            "Table 6: Average local test accuracy (%) of newcomer clients (Non-IID label skew 20%)"
        );
        println!(
            "| {:<9} | {:>16} | {:>16} | {:>16} | {:>16} |",
            "Method", "CIFAR-10", "CIFAR-100", "FMNIST", "SVHN"
        );
        for (m, row) in METHODS.iter().zip(&self.0) {
            print!("| {:<9} |", m);
            for xs in row {
                let (mean, std) = mean_std(xs);
                print!(" {:>7.2} ± {:>5.2} |", mean * 100.0, std * 100.0);
            }
            println!();
        }
    }
}

/// Mean subspace distance from a newcomer basis to a cluster's members.
fn cluster_distance(
    basis: &fedclust_tensor::Tensor,
    cluster: usize,
    art: &fedclust_fl::methods::pacfl::PacflArtifacts,
) -> f32 {
    let mut sum = 0.0f32;
    let mut n = 0usize;
    for (ci, b) in art.labels.iter().zip(&art.bases) {
        if *ci == cluster {
            sum += subspace_distance_deg(basis, b);
            n += 1;
        }
    }
    if n == 0 {
        f32::INFINITY
    } else {
        sum / n as f32
    }
}
