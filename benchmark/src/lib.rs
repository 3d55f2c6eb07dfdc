//! Shared, std-only pieces of the benchmark: statistics, the text parsers
//! for what the release binaries print, the workload and metric tables,
//! and the span arithmetic. `fedbench` uses nothing else, so a refactor of
//! `crates/*` cannot break the end-to-end side; only `fedbench-trace`
//! links the repo's crates.

pub mod parse;
pub mod spans;
pub mod stats;
pub mod workloads;
