//! The `shape` artefact: the comparative claims EXPERIMENTS.md makes about
//! Tables 1–6 — who wins, who reaches a target, who is cheapest — evaluated
//! over the numbers the run already holds and printed as one `holds` /
//! `does not hold` line each, followed by the per-dataset evidence. It reports;
//! it never asserts, and a claim that fails is a line, not an exit status.

use crate::runner::GridResults;
use crate::table6::{self, Newcomers};
use crate::tables::{dataset_order, targets, METHOD_ORDER};

/// Methods whose clients (and newcomers) all get the one global model.
const GLOBAL: [&str; 3] = ["FedAvg", "FedProx", "FedNova"];
/// Methods that hand a newcomer a cluster model or personalise for it.
const PERSONALISED: [&str; 5] = ["LG", "PerFedAvg", "IFCA", "PACFL", "FedClust"];

/// Which of two values is the better one: `f64::gt` where higher wins
/// (accuracy), `f64::lt` where lower does (rounds, Mb).
type Better = fn(&f64, &f64) -> bool;

/// A claim's outcome on one dataset: whether it holds there, and the
/// numbers that decide it.
type Cell = (bool, String);

/// The verdict line (the claim holds iff it holds on every dataset), then
/// one evidence line per dataset.
fn verdict(claim: &str, cells: Vec<Cell>) -> String {
    let holds = cells.iter().all(|(ok, _)| *ok);
    let mut out = format!(
        "{:<13} | {claim}\n",
        if holds { "holds" } else { "does not hold" }
    );
    for (dataset, (ok, numbers)) in dataset_order().iter().zip(&cells) {
        let mark = if *ok { "yes" } else { "no" };
        out.push_str(&format!(
            "{:>13} |   {mark:<3} {dataset:<9}  {numbers}\n",
            ""
        ));
    }
    out
}

/// The method of `methods` with the best value, and that value.
fn extreme<'a>(
    value: &impl Fn(&str) -> Option<f64>,
    methods: &[&'a str],
    better: Better,
) -> Option<(&'a str, f64)> {
    let mut best = None;
    for &m in methods {
        if let Some(v) = value(m) {
            if best.is_none_or(|(_, b)| better(&v, &b)) {
                best = Some((m, v));
            }
        }
    }
    best
}

/// Does `who` have a value that no rival betters? `value` is a method's
/// number on the dataset at hand (`None`: it has none, e.g. never reached
/// the target — worse than any number), printed to `decimals` places.
fn unbeaten(
    value: impl Fn(&str) -> Option<f64>,
    who: &str,
    rivals: &[&str],
    better: Better,
    decimals: usize,
) -> Cell {
    let rivals: Vec<&str> = rivals.iter().copied().filter(|&r| r != who).collect();
    let best = extreme(&value, &rivals, better);
    let numbers = match (value(who), best) {
        (Some(v), Some((m, b))) => format!("{who} {v:.decimals$}, best other {m} {b:.decimals$}"),
        (Some(v), None) => format!("{who} {v:.decimals$}"),
        (None, _) => format!("{who} --"),
    };
    let ok = value(who).is_some_and(|v| best.is_none_or(|(_, b)| !better(&b, &v)));
    (ok, numbers)
}

/// `unbeaten` on every dataset of a grid, `value(dataset, target, method)`
/// being the number compared.
fn per_dataset(
    grid: &GridResults,
    value: impl Fn(&str, f64, &str) -> Option<f64>,
    who: &str,
    rivals: &[&str],
    better: Better,
    decimals: usize,
) -> Vec<Cell> {
    targets(grid)
        .iter()
        .map(|(dataset, target)| {
            unbeaten(
                |m| value(dataset, *target, m),
                who,
                rivals,
                better,
                decimals,
            )
        })
        .collect()
}

/// A grid's mean final accuracy in percent, as `per_dataset`'s `value`.
fn acc(grid: &GridResults) -> impl Fn(&str, f64, &str) -> Option<f64> + '_ {
    |d, _, m| grid.aggregate(d, m).map(|a| a.mean_acc * 100.0)
}

/// Every claim in table order.
pub fn claims(
    skew20: &GridResults,
    skew30: &GridResults,
    dir01: &GridResults,
    newcomers: &Newcomers,
) -> String {
    let rounds = |d: &str, t: f64, m: &str| {
        let r = skew20.aggregate(d, m)?.rounds_to_target(t)?;
        Some(r as f64)
    };
    let mb = |d: &str, t: f64, m: &str| skew30.aggregate(d, m)?.mb_to_target(t);
    let communicating = &METHOD_ORDER[1..];

    let mut out =
        String::from("Shape: EXPERIMENTS.md's comparative claims against the numbers above\n");
    let best = |table: usize, grid| {
        verdict(
            &format!("Table {table}: FedClust has the best accuracy"),
            per_dataset(grid, acc(grid), "FedClust", &METHOD_ORDER, f64::gt, 2),
        )
    };
    out.push_str(&best(1, skew20));
    out.push_str(&verdict(
        "Table 1: FedClust has the best accuracy of the methods that communicate",
        per_dataset(skew20, acc(skew20), "FedClust", communicating, f64::gt, 2),
    ));
    out.push_str(&verdict(
        "Table 1: training alone (Local) beats the one global model (FedAvg)",
        per_dataset(skew20, acc(skew20), "Local", &["FedAvg"], f64::gt, 2),
    ));
    out.push_str(&best(2, skew30));
    out.push_str(&best(3, dir01));
    out.push_str(&verdict(
        "Table 4: FedClust reaches the target",
        per_dataset(skew20, rounds, "FedClust", &[], f64::lt, 0),
    ));
    out.push_str(&verdict(
        "Table 4: no method reaches the target in fewer rounds than FedClust",
        per_dataset(skew20, rounds, "FedClust", &METHOD_ORDER, f64::lt, 0),
    ));
    out.push_str(&verdict(
        "Table 5: LG reaches the target for the fewest Mb of the methods that communicate",
        per_dataset(skew30, mb, "LG", communicating, f64::lt, 2),
    ));
    out.push_str(&verdict(
        "Table 5: FedClust reaches the target for fewer Mb than IFCA and PACFL",
        per_dataset(skew30, mb, "FedClust", &["IFCA", "PACFL"], f64::lt, 2),
    ));

    let newcomer = |di: usize| move |m: &str| Some(newcomers.means(m)[di] * 100.0);
    let datasets = 0..dataset_order().len();
    out.push_str(&verdict(
        "Table 6: newcomers of every cluster/personalised method beat newcomers handed a global model",
        datasets
            .clone()
            .map(|di| {
                let (p, low) = extreme(&newcomer(di), &PERSONALISED, f64::lt).expect("five rows");
                let (g, high) = extreme(&newcomer(di), &GLOBAL, f64::gt).expect("three rows");
                (
                    low > high,
                    format!("lowest {p} {low:.2}, highest global {g} {high:.2}"),
                )
            })
            .collect(),
    ));
    out.push_str(&verdict(
        "Table 6: FedClust's newcomers have the best accuracy",
        datasets
            .map(|di| unbeaten(newcomer(di), "FedClust", &table6::METHODS, f64::gt, 2))
            .collect(),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn value(method: &str) -> Option<f64> {
        match method {
            "A" | "B" => Some(2.0),
            "C" => Some(3.0),
            _ => None, // e.g. never reached the target
        }
    }

    #[test]
    fn unbeaten_needs_a_value_and_no_strictly_better_rival() {
        // A tie is not a defeat, and a method is not its own rival.
        assert!(unbeaten(value, "A", &["A", "B"], f64::gt, 1).0);
        assert_eq!(
            unbeaten(value, "A", &["B", "C"], f64::gt, 1),
            (false, "A 2.0, best other C 3.0".to_string())
        );
        // A rival without a value cannot win; a claimant without one cannot hold.
        assert!(unbeaten(value, "A", &["C", "D"], f64::lt, 0).0);
        assert_eq!(
            unbeaten(value, "D", &["A"], f64::lt, 0),
            (false, "D --".to_string())
        );
        assert_eq!(
            unbeaten(value, "A", &[], f64::lt, 0),
            (true, "A 2".to_string())
        );
    }

    #[test]
    fn a_claim_holds_only_if_it_holds_on_every_dataset() {
        let cells = |last: bool| {
            let mut cells = vec![(true, "x 1".to_string()); dataset_order().len()];
            cells.last_mut().unwrap().0 = last;
            cells
        };
        let held = verdict("c", cells(true));
        assert!(held.starts_with("holds         | c\n"), "{held}");
        assert_eq!(held.lines().count(), 1 + dataset_order().len());
        let missed = verdict("c", cells(false));
        assert!(missed.starts_with("does not hold | c\n"), "{missed}");
        assert!(
            missed.ends_with("              |   no  SVHN       x 1\n"),
            "{missed}"
        );
    }
}
