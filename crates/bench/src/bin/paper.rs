//! `paper [artefact...]`: print the named artefacts of the paper's
//! evaluation (all of them when none is named) to stdout, in table order,
//! computed by this build in this invocation. Whatever several artefacts
//! share — a non-IID grid, the newcomer runs — is computed at most once.

use fedclust_bench::runner::{run_grid, GridResults};
use fedclust_bench::scale::Knobs;
use fedclust_bench::table6::{self, Newcomers};
use fedclust_bench::tables::{accuracy_table, comm_table, fig3_series, rounds_table};
use fedclust_bench::{fig1, fig4, shape};
use fedclust_data::Partition;

/// The evaluation's three non-IID settings; `SKEW20`… index this and
/// `Held::grids`.
const SETTINGS: [Partition; 3] = [
    Partition::LabelSkew { fraction: 0.2 },
    Partition::LabelSkew { fraction: 0.3 },
    Partition::Dirichlet { alpha: 0.1 },
];
const SKEW20: usize = 0;
const SKEW30: usize = 1;
const DIR01: usize = 2;

/// What this invocation has computed so far.
struct Held {
    knobs: Knobs,
    grids: [Option<GridResults>; 3],
    newcomers: Option<Newcomers>,
}

impl Held {
    fn grid(&mut self, setting: usize) -> &GridResults {
        self.grids[setting].get_or_insert_with(|| run_grid(SETTINGS[setting], &self.knobs))
    }

    fn newcomers(&mut self) -> &Newcomers {
        self.newcomers
            .get_or_insert_with(|| table6::run(&self.knobs))
    }
}

/// An artefact: its name on the command line and how to print it.
type Artefact = (&'static str, fn(&mut Held));

const ARTEFACTS: [Artefact; 10] = [
    ("table1", |h| {
        let title = "Table 1: Test accuracy (%) for Non-IID label skew (20%)";
        print!("{}", accuracy_table(h.grid(SKEW20), title));
    }),
    ("table2", |h| {
        let title = "Table 2: Test accuracy (%) for Non-IID label skew (30%)";
        print!("{}", accuracy_table(h.grid(SKEW30), title));
    }),
    ("table3", |h| {
        let title = "Table 3: Test accuracy (%) for Non-IID Dir (0.1)";
        print!("{}", accuracy_table(h.grid(DIR01), title));
    }),
    ("table4", |h| {
        let title =
            "Table 4: Rounds to reach target top-1 average local test accuracy (Non-IID 20%)";
        print!("{}", rounds_table(h.grid(SKEW20), title));
    }),
    ("table5", |h| {
        let title =
            "Table 5: Communication cost (Mb) to reach target accuracy (Non-IID label skew 30%)";
        print!("{}", comm_table(h.grid(SKEW30), title));
    }),
    ("table6", |h| h.newcomers().print()),
    ("fig1", |_| fig1::print()),
    ("fig3", |h| {
        println!("Fig. 3: Test accuracy vs communication rounds (Non-IID label skew 20%)\n");
        print!("{}", fig3_series(h.grid(SKEW20)));
    }),
    ("fig4", |h| fig4::print(&h.knobs)),
    ("shape", |h| {
        for setting in [SKEW20, SKEW30, DIR01] {
            h.grid(setting);
        }
        h.newcomers();
        let ([Some(skew20), Some(skew30), Some(dir01)], Some(newcomers)) = (&h.grids, &h.newcomers)
        else {
            unreachable!("all four were just computed")
        };
        print!("{}", shape::claims(skew20, skew30, dir01, newcomers));
    }),
];

fn main() {
    let wanted: Vec<String> = std::env::args().skip(1).collect();
    if let Some(unknown) = wanted
        .iter()
        .find(|w| ARTEFACTS.iter().all(|(name, _)| name != w))
    {
        let names: Vec<&str> = ARTEFACTS.iter().map(|(name, _)| *name).collect();
        eprintln!(
            "paper: unknown artefact `{unknown}`\nusage: paper [artefact...]   (none = all; artefacts: {})",
            names.join(" ")
        );
        std::process::exit(2);
    }
    let mut held = Held {
        knobs: Knobs::from_env_or_exit(),
        grids: [None, None, None],
        newcomers: None,
    };
    let selected = ARTEFACTS
        .iter()
        .filter(|(name, _)| wanted.is_empty() || wanted.iter().any(|w| w == name));
    for (i, (_, print)) in selected.enumerate() {
        if i > 0 {
            println!();
        }
        print(&mut held);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_artefacts_are_the_nine_documented_ones_plus_shape() {
        let names: Vec<&str> = ARTEFACTS.iter().map(|(name, _)| *name).collect();
        assert_eq!(
            names,
            [
                "table1", "table2", "table3", "table4", "table5", "table6", "fig1", "fig3", "fig4",
                "shape"
            ]
        );
    }
}
