//! Run telemetry and derived evaluation metrics.

use crate::faults::FaultTelemetry;
use crate::json;

/// One evaluation point in a run's history.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundRecord {
    /// 1-based round index at which the evaluation happened.
    pub round: usize,
    /// Average local test accuracy across all clients, in `[0, 1]`.
    pub avg_acc: f64,
    /// Cumulative communication cost (Mb) up to and including this round.
    pub cum_mb: f64,
}

/// The result of one full FL run with one method on one federated dataset.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunResult {
    /// Method name.
    pub method: String,
    /// Final average local test accuracy in `[0, 1]`.
    pub final_acc: f64,
    /// Per-client final local test accuracies.
    pub per_client_acc: Vec<f32>,
    /// Accuracy/communication trajectory (Fig. 3, Tables 4–5).
    pub history: Vec<RoundRecord>,
    /// Number of clusters formed, for cluster-based methods.
    pub num_clusters: Option<usize>,
    /// Total communication cost of the run (Mb).
    pub total_mb: f64,
    /// Fault-injection counters (all zero for a fault-free run).
    pub faults: FaultTelemetry,
}

impl RunResult {
    /// The text `fedclust-cli run --json` prints: pretty JSON, one member
    /// per field in declaration order, `num_clusters` `null` when absent.
    pub fn to_json(&self) -> String {
        json::pretty(|w| {
            w.object(|w| {
                w.field("method").str(&self.method);
                w.field("final_acc").f64(self.final_acc);
                w.field("per_client_acc").f32s(&self.per_client_acc);
                w.field("history").array(&self.history, |w, r| {
                    w.object(|w| {
                        w.field("round").usize(r.round);
                        w.field("avg_acc").f64(r.avg_acc);
                        w.field("cum_mb").f64(r.cum_mb);
                    })
                });
                match self.num_clusters {
                    Some(k) => w.field("num_clusters").usize(k),
                    None => w.field("num_clusters").null(),
                }
                w.field("total_mb").f64(self.total_mb);
                let f = &self.faults;
                w.field("faults").object(|w| {
                    w.field("faults_injected").usize(f.faults_injected);
                    w.field("updates_quarantined").usize(f.updates_quarantined);
                    w.field("retries").usize(f.retries);
                    w.field("downlink_failures").usize(f.downlink_failures);
                    w.field("uplink_losses").usize(f.uplink_losses);
                    w.field("deadline_misses").usize(f.deadline_misses);
                });
            });
        })
    }

    /// First round at which the average accuracy reached `target`
    /// (Table 4). `None` if never reached.
    pub fn rounds_to_target(&self, target: f64) -> Option<usize> {
        self.history
            .iter()
            .find(|r| r.avg_acc >= target)
            .map(|r| r.round)
    }

    /// Cumulative communication (Mb) when `target` accuracy was first
    /// reached (Table 5). `None` if never reached.
    pub fn mb_to_target(&self, target: f64) -> Option<f64> {
        self.history
            .iter()
            .find(|r| r.avg_acc >= target)
            .map(|r| r.cum_mb)
    }
}

/// Mean and (population) standard deviation of a sample.
pub fn mean_std(xs: &[f64]) -> (f64, f64) {
    if xs.is_empty() {
        return (0.0, 0.0);
    }
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
    (mean, var.sqrt())
}

/// Aggregate the same method's results across seeds: mean ± std of final
/// accuracy, plus the per-seed results for downstream use.
#[derive(Debug, Clone)]
pub struct SeedAggregate {
    /// Method name.
    pub method: String,
    /// Mean final accuracy across seeds.
    pub mean_acc: f64,
    /// Std of final accuracy across seeds.
    pub std_acc: f64,
    /// The per-seed runs.
    pub runs: Vec<RunResult>,
}

impl SeedAggregate {
    /// Aggregate runs that must all share one method name.
    ///
    /// # Panics
    /// Panics if `runs` is empty or methods differ.
    pub fn from_runs(runs: Vec<RunResult>) -> Self {
        assert!(!runs.is_empty(), "no runs to aggregate");
        let method = runs[0].method.clone();
        assert!(
            runs.iter().all(|r| r.method == method),
            "aggregating runs of different methods"
        );
        let accs: Vec<f64> = runs.iter().map(|r| r.final_acc).collect();
        let (mean_acc, std_acc) = mean_std(&accs);
        SeedAggregate {
            method,
            mean_acc,
            std_acc,
            runs,
        }
    }

    /// Median rounds-to-target across seeds (`None` if a majority of seeds
    /// never reached the target).
    pub fn rounds_to_target(&self, target: f64) -> Option<usize> {
        let mut vals: Vec<usize> = self
            .runs
            .iter()
            .filter_map(|r| r.rounds_to_target(target))
            .collect();
        if vals.len() * 2 < self.runs.len() {
            return None;
        }
        vals.sort_unstable();
        Some(vals[vals.len() / 2])
    }

    /// Median Mb-to-target across seeds (same reachability rule).
    pub fn mb_to_target(&self, target: f64) -> Option<f64> {
        let mut vals: Vec<f64> = self
            .runs
            .iter()
            .filter_map(|r| r.mb_to_target(target))
            .collect();
        if vals.len() * 2 < self.runs.len() {
            return None;
        }
        vals.sort_by(f64::total_cmp);
        Some(vals[vals.len() / 2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(accs: &[(usize, f64, f64)], final_acc: f64) -> RunResult {
        RunResult {
            method: "m".into(),
            final_acc,
            per_client_acc: vec![],
            history: accs
                .iter()
                .map(|&(round, avg_acc, cum_mb)| RoundRecord {
                    round,
                    avg_acc,
                    cum_mb,
                })
                .collect(),
            num_clusters: None,
            total_mb: accs.last().map_or(0.0, |l| l.2),
            ..RunResult::default()
        }
    }

    #[test]
    fn targets_found_at_first_crossing() {
        let r = run(&[(2, 0.3, 1.0), (4, 0.6, 2.0), (6, 0.8, 3.0)], 0.8);
        assert_eq!(r.rounds_to_target(0.5), Some(4));
        assert_eq!(r.mb_to_target(0.5), Some(2.0));
        assert_eq!(r.rounds_to_target(0.9), None);
        assert_eq!(r.mb_to_target(0.9), None);
    }

    #[test]
    fn mean_std_basic() {
        let (m, s) = mean_std(&[1.0, 2.0, 3.0]);
        assert!((m - 2.0).abs() < 1e-12);
        assert!((s - (2.0f64 / 3.0).sqrt()).abs() < 1e-12);
        assert_eq!(mean_std(&[]), (0.0, 0.0));
    }

    #[test]
    fn aggregate_across_seeds() {
        let runs = vec![
            run(&[(2, 0.5, 1.0)], 0.5),
            run(&[(2, 0.7, 1.0)], 0.7),
            run(&[(2, 0.6, 1.0)], 0.6),
        ];
        let agg = SeedAggregate::from_runs(runs);
        assert!((agg.mean_acc - 0.6).abs() < 1e-12);
        assert!(agg.std_acc > 0.0);
        assert_eq!(agg.rounds_to_target(0.55), Some(2));
        assert_eq!(agg.rounds_to_target(0.65), None, "only 1 of 3 reached");
    }

    #[test]
    #[should_panic(expected = "different methods")]
    fn mixed_methods_panic() {
        let mut a = run(&[], 0.1);
        let mut b = run(&[], 0.2);
        a.method = "x".into();
        b.method = "y".into();
        let _ = SeedAggregate::from_runs(vec![a, b]);
    }
}
