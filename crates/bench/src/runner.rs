//! The shared grid runner: one (dataset × method × seed) sweep per non-IID
//! setting, held in memory by whoever asked for it — nothing is read from
//! or written to disk, so a table is always what this build computes.

use crate::scale::Knobs;
use fedclust::FedClust;
use fedclust_data::{DatasetProfile, FederatedDataset, Partition};
use fedclust_fl::methods::{baselines, FlMethod};
use fedclust_fl::metrics::{RunResult, SeedAggregate};
use std::time::Instant;

/// One grid cell: a method's run on one dataset with one seed.
#[derive(Debug, Clone)]
pub struct GridEntry {
    /// Dataset display name.
    pub dataset: String,
    /// Seed used.
    pub seed: u64,
    /// The run's telemetry.
    pub result: RunResult,
}

/// All runs of one non-IID setting.
#[derive(Debug, Clone)]
pub struct GridResults {
    /// Partition tag, e.g. `skew20`.
    pub partition: String,
    /// All cells.
    pub entries: Vec<GridEntry>,
}

impl GridResults {
    /// Aggregate one (dataset, method) cell across seeds.
    pub fn aggregate(&self, dataset: &str, method: &str) -> Option<SeedAggregate> {
        let runs: Vec<RunResult> = self
            .entries
            .iter()
            .filter(|e| e.dataset == dataset && e.result.method == method)
            .map(|e| e.result.clone())
            .collect();
        if runs.is_empty() {
            None
        } else {
            Some(SeedAggregate::from_runs(runs))
        }
    }

    /// The distinct method names present, in first-seen order.
    pub fn methods(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for e in &self.entries {
            if !out.contains(&e.result.method) {
                out.push(e.result.method.clone());
            }
        }
        out
    }
}

/// The ten methods of the paper's tables (nine baselines + FedClust).
pub fn all_methods() -> Vec<Box<dyn FlMethod>> {
    let mut methods = baselines();
    methods.push(Box::new(FedClust::default()));
    methods
}

/// Run the full method × dataset × seed grid for one non-IID partition
/// setting.
pub fn run_grid(partition: Partition, knobs: &Knobs) -> GridResults {
    let tag = partition.tag();
    let methods = all_methods();
    let mut entries = Vec::new();
    let seeds = knobs.seeds();
    let total = DatasetProfile::ALL.len() * seeds.len() * methods.len();
    let mut done = 0usize;
    let t0 = Instant::now();
    for profile in DatasetProfile::ALL {
        for &seed in &seeds {
            let scale = knobs.scale(profile, seed);
            let fd = FederatedDataset::build(profile, partition, &scale.federated);
            for method in &methods {
                let t = Instant::now();
                let result = method.run(&fd, &scale.fl);
                done += 1;
                eprintln!(
                    "[grid {}] {}/{} {} on {} (seed {}): acc {:.3} in {:.1}s (elapsed {:.0}s)",
                    tag,
                    done,
                    total,
                    method.name(),
                    profile.name(),
                    seed,
                    result.final_acc,
                    t.elapsed().as_secs_f64(),
                    t0.elapsed().as_secs_f64(),
                );
                entries.push(GridEntry {
                    dataset: profile.name().to_string(),
                    seed,
                    result,
                });
            }
        }
    }
    GridResults {
        partition: tag,
        entries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedclust_fl::metrics::RunResult;

    fn entry(dataset: &str, method: &str, seed: u64, acc: f64) -> GridEntry {
        GridEntry {
            dataset: dataset.to_string(),
            seed,
            result: RunResult {
                method: method.to_string(),
                final_acc: acc,
                per_client_acc: vec![],
                history: vec![],
                num_clusters: None,
                total_mb: 1.0,
                faults: Default::default(),
            },
        }
    }

    #[test]
    fn aggregate_filters_by_dataset_and_method() {
        let grid = GridResults {
            partition: "t".into(),
            entries: vec![
                entry("A", "FedAvg", 1, 0.5),
                entry("A", "FedAvg", 2, 0.7),
                entry("A", "FedClust", 1, 0.9),
                entry("B", "FedAvg", 1, 0.1),
            ],
        };
        let agg = grid.aggregate("A", "FedAvg").unwrap();
        assert_eq!(agg.runs.len(), 2);
        assert!((agg.mean_acc - 0.6).abs() < 1e-12);
        assert!(grid.aggregate("C", "FedAvg").is_none());
        assert!(grid.aggregate("A", "Nope").is_none());
    }

    #[test]
    fn methods_lists_in_first_seen_order() {
        let grid = GridResults {
            partition: "t".into(),
            entries: vec![
                entry("A", "FedAvg", 1, 0.5),
                entry("A", "FedClust", 1, 0.9),
                entry("B", "FedAvg", 1, 0.1),
            ],
        };
        assert_eq!(
            grid.methods(),
            vec!["FedAvg".to_string(), "FedClust".to_string()]
        );
    }

    #[test]
    fn all_methods_has_the_papers_ten() {
        let methods = all_methods();
        assert_eq!(methods.len(), 10);
        let names: Vec<&str> = methods.iter().map(|m| m.name()).collect();
        assert!(names.contains(&"FedClust"));
        assert!(names.contains(&"PACFL"));
        assert!(names.contains(&"Local"));
    }
}
