//! # fedclust-bench
//!
//! The harness that regenerates every table and figure of the paper's
//! evaluation (§5) at reproduction scale: one binary, `paper
//! [artefact...]`, printing the selected artefacts to stdout in this
//! order (`paper` alone prints all of them — that output, committed, is
//! `results/paper.txt`):
//!
//! | Artefact | Paper | Output |
//! |----------|-------|--------|
//! | `table1` | Table 1 | accuracy, non-IID label skew 20 % |
//! | `table2` | Table 2 | accuracy, non-IID label skew 30 % |
//! | `table3` | Table 3 | accuracy, non-IID Dir(0.1) |
//! | `table4` | Table 4 | rounds to target accuracy (skew 20 %) |
//! | `table5` | Table 5 | communication Mb to target accuracy (skew 30 %) |
//! | `table6` | Table 6 | newcomer client accuracy (skew 20 %) |
//! | `fig1`   | Fig. 1  | layer-wise client distance matrices |
//! | `fig3`   | Fig. 3  | accuracy vs rounds series (skew 20 %) |
//! | `fig4`   | Fig. 4  | accuracy & #clusters vs λ |
//! | `shape`  | —       | EXPERIMENTS.md's comparative claims, `holds` / `does not hold` |
//!
//! Nothing is cached: every number printed was computed by this build in
//! this invocation. Within one invocation each non-IID grid is trained at
//! most once, so `paper table1 table4 fig3` pays for the skew-20 grid once.
//! `FEDCLUST_FAST=1` selects a quick smoke-scale pass and
//! `FEDCLUST_SEEDS=n` the seed count; there is no other knob.

pub mod fig1;
pub mod fig4;
pub mod runner;
pub mod scale;
pub mod shape;
pub mod table6;
pub mod tables;

pub use runner::{run_grid, GridEntry, GridResults};
pub use scale::{Knobs, Scale};
