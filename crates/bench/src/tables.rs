//! Table formatting: render grids as the paper's tables.

use crate::runner::GridResults;
use fedclust_data::DatasetProfile;
use fedclust_fl::metrics::SeedAggregate;

/// Method ordering used by the paper's tables.
pub const METHOD_ORDER: [&str; 10] = [
    "Local",
    "FedAvg",
    "FedProx",
    "FedNova",
    "LG",
    "PerFedAvg",
    "CFL",
    "IFCA",
    "PACFL",
    "FedClust",
];

/// Dataset column order used by the paper's tables.
pub fn dataset_order() -> Vec<&'static str> {
    DatasetProfile::ALL.iter().map(|p| p.name()).collect()
}

/// Render the accuracy table (Tables 1–3): mean ± std of the final average
/// local test accuracy, in percent.
pub fn accuracy_table(grid: &GridResults, title: &str) -> String {
    let mut out = String::new();
    out.push_str(&format!("{}\n", title));
    out.push_str(&format!(
        "| {:<9} | {:>16} | {:>16} | {:>16} | {:>16} |\n",
        "Method", "CIFAR-10", "CIFAR-100", "FMNIST", "SVHN"
    ));
    out.push_str(&format!(
        "|{}|{}|{}|{}|{}|\n",
        "-".repeat(11),
        "-".repeat(18),
        "-".repeat(18),
        "-".repeat(18),
        "-".repeat(18)
    ));
    for method in METHOD_ORDER {
        out.push_str(&format!("| {:<9} |", method));
        for dataset in dataset_order() {
            match grid.aggregate(dataset, method) {
                Some(agg) => out.push_str(&format!(
                    " {:>7.2} ± {:>5.2} |",
                    agg.mean_acc * 100.0,
                    agg.std_acc * 100.0
                )),
                None => out.push_str(&format!(" {:>16} |", "--")),
            }
        }
        out.push('\n');
    }
    out
}

/// Per-dataset target accuracy for the rounds/Mb-to-target tables. The
/// paper uses absolute targets (e.g. 80 % on CIFAR-10); since the synthetic
/// datasets have a different accuracy range, the target is set to 90 % of
/// the best method's mean final accuracy, which preserves the *ordering*
/// comparison the tables make.
pub fn targets(grid: &GridResults) -> Vec<(String, f64)> {
    dataset_order()
        .iter()
        .map(|&dataset| {
            let best = METHOD_ORDER
                .iter()
                .filter_map(|m| grid.aggregate(dataset, m))
                .map(|a| a.mean_acc)
                .fold(0.0f64, f64::max)
                .clamp(0.0, 1.0);
            (dataset.to_string(), (best * 0.9 * 100.0).floor() / 100.0)
        })
        .collect()
}

/// Render Table 4: communication rounds needed to reach the target
/// accuracy ("--" if a method never reaches it).
pub fn rounds_table(grid: &GridResults, title: &str) -> String {
    to_target_table(grid, title, 9, |a, target| {
        a.rounds_to_target(target).map(|r| r.to_string())
    })
}

/// Render Table 5: communication cost in Mb to reach the target accuracy.
pub fn comm_table(grid: &GridResults, title: &str) -> String {
    to_target_table(grid, title, 10, |a, target| {
        a.mb_to_target(target).map(|mb| format!("{mb:.2}"))
    })
}

/// Tables 4 and 5: a `Target` row, then one row per method of `cell`'s
/// cost to reach each dataset's target, `width` characters a column.
fn to_target_table(
    grid: &GridResults,
    title: &str,
    width: usize,
    cell: impl Fn(&SeedAggregate, f64) -> Option<String>,
) -> String {
    let targets = targets(grid);
    let mut out = String::new();
    out.push_str(&format!("{}\n", title));
    out.push_str(&format!(
        "| {:<9} | {:>w$} | {:>w$} | {:>w$} | {:>w$} |\n",
        "Method",
        "CIFAR-10",
        "CIFAR-100",
        "FMNIST",
        "SVHN",
        w = width
    ));
    out.push_str(&format!("| {:<9} |", "Target"));
    for (_, t) in &targets {
        out.push_str(&format!(" {:>w$.0}% |", t * 100.0, w = width - 1));
    }
    out.push('\n');
    for method in METHOD_ORDER {
        out.push_str(&format!("| {:<9} |", method));
        for (dataset, target) in &targets {
            let cell = grid
                .aggregate(dataset, method)
                .and_then(|a| cell(&a, *target));
            let cell = cell.as_deref().unwrap_or("--");
            out.push_str(&format!(" {:>w$} |", cell, w = width));
        }
        out.push('\n');
    }
    out
}

/// Render Fig. 3 as text series: per dataset, one `(round, accuracy)`
/// series per method.
pub fn fig3_series(grid: &GridResults) -> String {
    let mut out = String::new();
    for dataset in dataset_order() {
        out.push_str(&format!(
            "## {} — accuracy vs communication rounds\n",
            dataset
        ));
        for method in METHOD_ORDER {
            if let Some(agg) = grid.aggregate(dataset, method) {
                // Average the histories point-wise across seeds (rounds align
                // because eval cadence is deterministic).
                let first = &agg.runs[0].history;
                let series: Vec<String> = first
                    .iter()
                    .enumerate()
                    .map(|(i, rec)| {
                        let mean: f64 = agg
                            .runs
                            .iter()
                            .filter_map(|r| r.history.get(i))
                            .map(|r| r.avg_acc)
                            .sum::<f64>()
                            / agg.runs.len() as f64;
                        format!("({}, {:.3})", rec.round, mean)
                    })
                    .collect();
                out.push_str(&format!("  {:<9}: {}\n", method, series.join(" ")));
            }
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::GridEntry;
    use fedclust_fl::metrics::{RoundRecord, RunResult};

    fn grid() -> GridResults {
        let mut entries = Vec::new();
        for dataset in dataset_order() {
            for method in ["FedAvg", "FedClust"] {
                for seed in [1u64, 2] {
                    entries.push(GridEntry {
                        dataset: dataset.to_string(),
                        seed,
                        result: RunResult {
                            method: method.to_string(),
                            final_acc: if method == "FedClust" { 0.9 } else { 0.5 },
                            per_client_acc: vec![],
                            history: vec![
                                RoundRecord {
                                    round: 2,
                                    avg_acc: 0.4,
                                    cum_mb: 1.0,
                                },
                                RoundRecord {
                                    round: 4,
                                    avg_acc: if method == "FedClust" { 0.9 } else { 0.5 },
                                    cum_mb: 2.0,
                                },
                            ],
                            num_clusters: None,
                            total_mb: 2.0,
                            faults: Default::default(),
                        },
                    });
                }
            }
        }
        GridResults {
            partition: "skew20".into(),
            entries,
        }
    }

    #[test]
    fn accuracy_table_contains_all_rows() {
        let t = accuracy_table(&grid(), "Table 1");
        assert!(t.contains("FedClust"));
        assert!(t.contains("90.00"));
        assert!(t.contains("--"), "missing methods render as --");
    }

    #[test]
    fn targets_follow_best_method() {
        let ts = targets(&grid());
        for (_, t) in ts {
            assert!((t - 0.81).abs() < 0.011, "target {}", t);
        }
    }

    #[test]
    fn rounds_table_marks_unreachable() {
        let t = rounds_table(&grid(), "Table 4");
        // FedAvg (0.5) never reaches 0.81 target: row shows --.
        let fedavg_line = t.lines().find(|l| l.contains("FedAvg")).unwrap();
        assert!(fedavg_line.contains("--"));
        let fedclust_line = t.lines().find(|l| l.contains("FedClust")).unwrap();
        assert!(fedclust_line.contains("4"));
    }

    #[test]
    fn comm_table_reports_mb() {
        let t = comm_table(&grid(), "Table 5");
        let fedclust_line = t.lines().find(|l| l.contains("FedClust")).unwrap();
        assert!(fedclust_line.contains("2.00"));
    }

    #[test]
    fn fig3_series_renders_points() {
        let s = fig3_series(&grid());
        assert!(s.contains("(2, 0.400)"));
        assert!(s.contains("(4, 0.900)"));
    }
}
