//! Table 6: average local test accuracy of *newcomer* clients that join
//! after federation (non-IID label skew 20 %).
//!
//! Setup mirrors the paper: 80 % of clients federate; the remaining 20 %
//! join afterwards, receive a model according to each method's protocol,
//! personalize for 5 epochs where the method prescribes it (cluster and
//! personalized methods), and are evaluated on their local test sets.
//! Global baselines hand over the global model unpersonalized, as in the
//! paper. CFL is omitted from this table, as in the paper.
//!
//! Every row is a hand-over — the state each newcomer starts from and its
//! personalization epochs — scored by the one
//! [`personalized_accuracy`]. The clustered methods choose that state by
//! their own rules (Algorithm 2 for FedClust, `Ifca::best_cluster`,
//! `PacflArtifacts::nearest_cluster`), and below the table each choice is
//! checked against the newcomers' ground-truth groups.

use crate::scale::Knobs;
use fedclust::newcomer::assign_newcomer;
use fedclust::FedClust;
use fedclust_data::{DatasetProfile, FederatedDataset, Partition};
use fedclust_fl::engine::{init_model, personalized_accuracy};
use fedclust_fl::methods::{FedAvg, FedNova, FedProx, Ifca, LgFedAvg, Pacfl, PerFedAvg};
use fedclust_fl::metrics::mean_std;
use fedclust_fl::{run_federation, FlConfig, Method, NoCheckpoints};
use rayon::prelude::*;
use std::collections::BTreeMap;
use std::slice::from_ref;

const PERSONALIZE_EPOCHS: usize = 5;

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

/// How one row hands its newcomers over: the states its method can hand
/// out, the one each newcomer gets, and the epochs it personalizes for.
type HandOver<'a> = (&'a [Vec<f32>], &'a [usize], usize);

/// The methods that place a newcomer in a cluster, as the assignment lines
/// list them.
const CLUSTERED: [&str; 3] = ["FedClust", "PACFL", "IFCA"];

/// How the newcomers of one dataset were placed, summed over seeds.
#[derive(Clone, Default)]
struct Placement {
    /// Newcomers each of [`CLUSTERED`] placed with their own group.
    right: [usize; 3],
    /// Newcomers whose group has a federated member: the most any rule can
    /// place right.
    ceiling: usize,
    /// Newcomers in all.
    newcomers: usize,
}

/// The ground-truth group most of `cluster`'s federated members belong to,
/// the lowest id on a tie; `None` for a cluster without members.
fn majority(labels: &[usize], truth: &[usize], cluster: usize) -> Option<usize> {
    let mut counts: BTreeMap<usize, usize> = BTreeMap::new();
    for (_, &group) in labels.iter().zip(truth).filter(|(&l, _)| l == cluster) {
        *counts.entry(group).or_default() += 1;
    }
    // `max_by_key` keeps the last maximum, so walk the ids downwards.
    counts
        .into_iter()
        .rev()
        .max_by_key(|&(_, n)| n)
        .map(|(g, _)| g)
}

/// Newcomer accuracies, `[method][dataset]` = one mean over the newcomers
/// per seed (methods in [`METHODS`] order, datasets in
/// `DatasetProfile::ALL` order), and how the newcomers were placed.
pub struct Newcomers {
    accs: Vec<Vec<Vec<f64>>>,
    placed: Vec<Placement>,
}

/// Federate 80 % of the clients under every method, then incorporate the
/// other 20 %.
pub fn run(knobs: &Knobs) -> Newcomers {
    let partition = Partition::LabelSkew { fraction: 0.2 };
    let datasets = DatasetProfile::ALL.len();
    let mut accs: Vec<Vec<Vec<f64>>> = vec![vec![Vec::new(); datasets]; METHODS.len()];
    let mut placed = vec![Placement::default(); datasets];

    for (di, profile) in DatasetProfile::ALL.into_iter().enumerate() {
        for &seed in &knobs.seeds() {
            let scale = knobs.scale(profile, seed);
            let full = FederatedDataset::build(profile, partition, &scale.federated);
            // Taken before the split, so newcomers share the federated
            // clients' group ids.
            let mut truth = full.ground_truth_groups();
            let n_new = (full.num_clients() / 5).max(1);
            let (fd, newcomers) = full.split_newcomers(n_new);
            let newcomer_truth = truth.split_off(fd.num_clients());
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

            let fedavg = artifacts(&FedAvg, &fd, &cfg);
            let fedprox = artifacts(&FedProx, &fd, &cfg);
            let fednova = artifacts(&FedNova, &fd, &cfg);
            // LG: fresh local layers under the trained global head.
            let lg = artifacts(&LgFedAvg, &fd, &cfg);
            let mut lg_state = init_state.clone();
            lg_state[lg.split..].copy_from_slice(&lg.global_part);
            let meta = artifacts(&PerFedAvg, &fd, &cfg);
            let ifca = artifacts(&Ifca::default(), &fd, &cfg);
            let pacfl = Pacfl;
            let pacfl_art = artifacts(&pacfl, &fd, &cfg);
            let federation = artifacts(&FedClust::default(), &fd, &cfg);

            // Each clustered method's choice for every newcomer, by its own
            // rule. IFCA keeps no membership, so its federated clients are
            // placed the way it evaluates them.
            let ifca_of = |replica: &mut _, data| Ifca::best_cluster(replica, &ifca, data);
            let replica = || template.clone();
            let ifca_labels: Vec<usize> =
                fd.clients.par_iter().map_init(replica, ifca_of).collect();
            let ifca_choice: Vec<usize> = newcomers.par_iter().map_init(replica, ifca_of).collect();
            let pacfl_choice: Vec<usize> = newcomers
                .par_iter()
                .map(|nc| pacfl_art.nearest_cluster(&pacfl.client_basis(nc)))
                .collect();
            let fedclust_choice: Vec<usize> = newcomers
                .par_iter()
                .enumerate()
                .map(|(i, nc)| assign_newcomer(&federation, nc, &cfg, i))
                .collect();

            // Local trains alone from θ⁰ with a budget comparable to a
            // federated client's expected training; global baselines hand
            // over their model unpersonalized.
            let budget = ((cfg.rounds as f32 * cfg.sample_rate * cfg.local_epochs as f32).round()
                as usize)
                .max(1);
            let one = vec![0; newcomers.len()];
            let hand_overs: [HandOver; 9] = [
                (from_ref(&init_state), &one, budget),
                (from_ref(&fedavg), &one, 0),
                (from_ref(&fedprox), &one, 0),
                (from_ref(&fednova), &one, 0),
                (from_ref(&lg_state), &one, PERSONALIZE_EPOCHS),
                (from_ref(&meta), &one, PERSONALIZE_EPOCHS),
                (&ifca, &ifca_choice, PERSONALIZE_EPOCHS),
                (&pacfl_art.states, &pacfl_choice, PERSONALIZE_EPOCHS),
                (
                    &federation.saved.cluster_states,
                    &fedclust_choice,
                    PERSONALIZE_EPOCHS,
                ),
            ];
            for (mi, (states, choice, epochs)) in hand_overs.into_iter().enumerate() {
                let vals: Vec<f32> = newcomers
                    .par_iter()
                    .enumerate()
                    .map(|(i, nc)| {
                        personalized_accuracy(&template, &states[choice[i]], nc, &cfg, epochs, i)
                    })
                    .collect();
                accs[mi][di].push(mean(&vals));
            }

            let rules = [
                (&federation.saved.labels, &fedclust_choice),
                (&pacfl_art.labels, &pacfl_choice),
                (&ifca_labels, &ifca_choice),
            ];
            let p = &mut placed[di];
            for (right, (labels, choice)) in p.right.iter_mut().zip(rules) {
                *right += choice
                    .iter()
                    .zip(&newcomer_truth)
                    .filter(|&(&c, &group)| majority(labels, &truth, c) == Some(group))
                    .count();
            }
            p.ceiling += newcomer_truth.iter().filter(|g| truth.contains(g)).count();
            p.newcomers += newcomers.len();
        }
    }

    Newcomers { accs, placed }
}

impl Newcomers {
    /// Mean over seeds of one method's newcomer accuracy per dataset.
    pub fn means(&self, method: &str) -> Vec<f64> {
        let mi = METHODS
            .iter()
            .position(|&m| m == method)
            .expect("a Table 6 method");
        self.accs[mi].iter().map(|xs| mean_std(xs).0).collect()
    }

    /// Print Table 6.
    pub fn print(&self) {
        println!(
            "Table 6: Average local test accuracy (%) of newcomer clients (Non-IID label skew 20%)"
        );
        let header = |first: &str| {
            println!(
                "| {:<9} | {:>16} | {:>16} | {:>16} | {:>16} |",
                first, "CIFAR-10", "CIFAR-100", "FMNIST", "SVHN"
            )
        };
        header("Method");
        for (m, row) in METHODS.iter().zip(&self.accs) {
            print!("| {:<9} |", m);
            for xs in row {
                let (mean, std) = mean_std(xs);
                print!(" {:>7.2} ± {:>5.2} |", mean * 100.0, std * 100.0);
            }
            println!();
        }
        println!(
            "Newcomer assignment: newcomers placed in a cluster whose federated majority has their \
             ground-truth group, summed over seeds (Ceiling: their group has a federated member)"
        );
        header("Rule");
        for (ri, rule) in CLUSTERED.iter().chain(&["Ceiling"]).enumerate() {
            print!("| {:<9} |", rule);
            for p in &self.placed {
                let n = if ri < CLUSTERED.len() {
                    p.right[ri]
                } else {
                    p.ceiling
                };
                print!(" {:>16} |", format!("{n} of {}", p.newcomers));
            }
            println!();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_clusters_majority_is_its_most_common_group_lowest_id_first() {
        let labels = [0, 0, 0, 1, 1, 3];
        let truth = [4, 2, 4, 5, 2, 7];
        assert_eq!(majority(&labels, &truth, 0), Some(4));
        assert_eq!(majority(&labels, &truth, 1), Some(2), "a tie");
        assert_eq!(majority(&labels, &truth, 2), None, "no members");
    }
}
