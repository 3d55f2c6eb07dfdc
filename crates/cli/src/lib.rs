//! # fedclust-cli
//!
//! A small dependency-free command-line front end for the FedClust
//! reproduction. Everything argument-parsing lives here (testable); the
//! four binaries are one-line calls of [`shell`].
//!
//! ```text
//! fedclust-cli run     --method fedclust --dataset cifar10 --partition skew20
//! fedclust-cli cluster --dataset fmnist --partition skew20 --clients 30
//! fedclust-cli sweep   --dataset svhn --points 6
//! fedclust-cli methods
//! ```

use fedclust::{lambda_sweep, FedClust};
use fedclust_cluster::metrics::adjusted_rand_index;
use fedclust_data::{DatasetProfile, FederatedDataset, Partition};
use fedclust_fl::engine::RemoteTrainer;
use fedclust_fl::methods::{baselines, extended_baselines, FlMethod};
use fedclust_fl::{run_federation, Checkpointer, CrashPlan, FaultPlan, FlConfig, NoCheckpoints};

pub mod args;
pub mod chaos;
mod coordinator;
mod flags;
pub mod net;
pub mod net_args;
pub mod worker;

pub use args::{Args, Command, ParseError};

/// The nine baselines, the extended suite, and FedClust itself.
pub fn all_methods() -> Vec<Box<dyn FlMethod>> {
    let mut methods = baselines();
    methods.extend(extended_baselines());
    methods.push(Box::new(FedClust::default()));
    methods
}

/// Look up a method by case-insensitive name.
pub fn find_method(name: &str) -> Option<Box<dyn FlMethod>> {
    all_methods()
        .into_iter()
        .find(|m| m.name().eq_ignore_ascii_case(name))
}

/// Names of all available methods.
pub fn method_names() -> Vec<&'static str> {
    all_methods().iter().map(|m| m.name()).collect()
}

/// Parse a dataset name.
pub fn parse_dataset(name: &str) -> Option<DatasetProfile> {
    match name.to_ascii_lowercase().as_str() {
        "cifar10" | "cifar-10" => Some(DatasetProfile::Cifar10Like),
        "cifar100" | "cifar-100" => Some(DatasetProfile::Cifar100Like),
        "fmnist" => Some(DatasetProfile::FmnistLike),
        "svhn" => Some(DatasetProfile::SvhnLike),
        _ => None,
    }
}

/// Parse a partition spec: `iid`, `skewNN` (percent), or `dirX.X` (alpha).
pub fn parse_partition(spec: &str) -> Option<Partition> {
    let s = spec.to_ascii_lowercase();
    if s == "iid" {
        return Some(Partition::Iid);
    }
    if let Some(rest) = s.strip_prefix("skew") {
        let pct: f32 = rest.parse().ok()?;
        if (0.0..=100.0).contains(&pct) {
            return Some(Partition::LabelSkew {
                fraction: pct / 100.0,
            });
        }
        return None;
    }
    if let Some(rest) = s.strip_prefix("dir") {
        let alpha: f32 = rest.parse().ok()?;
        if alpha > 0.0 {
            return Some(Partition::Dirichlet { alpha });
        }
    }
    None
}

/// The body of all four binaries: parse argv (exit 2 with the message on a
/// parse error), run (exit 1 with `error: ...` on failure), print what the
/// run returned if it returned anything.
pub fn shell<A>(
    parse: fn(&[String]) -> Result<A, ParseError>,
    run: impl FnOnce(&A) -> Result<String, String>,
) {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse(&argv).unwrap_or_else(|e| {
        eprintln!("{}", e);
        std::process::exit(2)
    });
    match run(&args) {
        Ok(out) if out.is_empty() => {}
        Ok(out) => println!("{}", out),
        Err(msg) => {
            eprintln!("error: {}", msg);
            std::process::exit(1)
        }
    }
}

/// Execute a parsed command; returns the text to print. `trainer` is the
/// worker fleet `run`'s local training is farmed out to (`fedclustd`);
/// `None` trains in process.
pub fn execute(args: &Args, trainer: Option<&dyn RemoteTrainer>) -> Result<String, String> {
    // Pin the worker-pool size before any training starts: `--threads`,
    // else the pool's own default (available parallelism). Results are
    // bit-identical at every thread count; this only changes wall-clock.
    if let Some(threads) = args.threads {
        rayon::set_num_threads(threads);
    }
    match &args.command {
        Command::Methods => Ok(format!("available methods: {}", method_names().join(", "))),
        Command::Run { method } => {
            let m = find_method(method).ok_or_else(|| {
                format!("unknown method '{}'; try `fedclust-cli methods`", method)
            })?;
            let fd = build_dataset(args)?;
            let cfg = build_config(args);
            let mut ckpt = match &args.checkpoint_dir {
                Some(dir) => Checkpointer::new(dir)
                    .every(args.checkpoint_every)
                    .keep(args.keep)
                    .resume(args.resume)
                    .crash(CrashPlan {
                        after_round: args.crash_after,
                        mid_write: args.crash_mid_write,
                    }),
                None => Checkpointer::disabled(),
            };
            let result = m
                .run_hosted(&fd, &cfg, &mut ckpt, trainer)
                .map_err(|e| e.to_string())?;
            // Diagnostics go to stderr so `--json` stdout stays clean.
            for line in ckpt.diagnostics() {
                eprintln!("checkpoint: {}", line);
            }
            if args.json {
                Ok(result.to_json())
            } else {
                let mut out = format!(
                    "{}: final accuracy {:.2}% over {} clients, {:.2} Mb total",
                    result.method,
                    result.final_acc * 100.0,
                    fd.num_clients(),
                    result.total_mb
                );
                if let Some(k) = result.num_clusters {
                    out.push_str(&format!(", {} clusters", k));
                }
                if cfg.faults.is_active() {
                    out.push_str(&format!(
                        "\n  faults: {} injected, {} quarantined, {} retries, {} deadline misses",
                        result.faults.faults_injected,
                        result.faults.updates_quarantined,
                        result.faults.retries,
                        result.faults.deadline_misses
                    ));
                }
                for r in &result.history {
                    out.push_str(&format!(
                        "\n  round {:>3}: {:.2}% ({:.2} Mb)",
                        r.round,
                        r.avg_acc * 100.0,
                        r.cum_mb
                    ));
                }
                Ok(out)
            }
        }
        Command::Cluster => {
            let fd = build_dataset(args)?;
            // Round 0 clusters once and no later round relabels a client,
            // so the driver runs no training round.
            let cfg = FlConfig {
                rounds: 0,
                ..build_config(args)
            };
            let Ok((_, federation)) =
                run_federation(&FedClust::default(), &fd, &cfg, NoCheckpoints, None);
            let truth = fd.ground_truth_groups();
            let ari = adjusted_rand_index(&federation.saved.labels, &truth);
            let mut out = format!(
                "one-shot clustering: {} clusters at λ = {:.4} (ARI vs label-set ground truth: {:.3})\n",
                federation.saved.outcome.num_clusters, federation.saved.outcome.lambda, ari
            );
            out.push_str(&format!("assignment: {:?}", federation.saved.labels));
            Ok(out)
        }
        Command::Sweep { points } => {
            let fd = build_dataset(args)?;
            let cfg = build_config(args);
            let dendro = lambda_sweep::dendrogram(&fd, &cfg, &FedClust::default());
            let grid = lambda_sweep::lambda_grid(&dendro, *points);
            let sweep = lambda_sweep::sweep(&fd, &cfg, &dendro, &grid);
            let mut out = String::from("lambda     clusters   accuracy\n");
            for p in &sweep {
                out.push_str(&format!(
                    "{:<10.4} {:<10} {:.2}%\n",
                    p.lambda,
                    p.num_clusters,
                    p.final_acc * 100.0
                ));
            }
            Ok(out)
        }
    }
}

/// Build the federated dataset an argument set describes. Public so the
/// networked worker can rebuild the *identical* dataset from the argv the
/// server ships in its `Welcome`.
pub fn build_dataset(args: &Args) -> Result<FederatedDataset, String> {
    let profile = parse_dataset(&args.dataset)
        .ok_or_else(|| format!("unknown dataset '{}'", args.dataset))?;
    let partition = parse_partition(&args.partition)
        .ok_or_else(|| format!("unknown partition '{}'", args.partition))?;
    Ok(FederatedDataset::build(
        profile,
        partition,
        &fedclust_data::federated::FederatedConfig {
            num_clients: args.clients,
            samples_per_class: args.samples_per_class,
            seed: args.seed,
        },
    ))
}

/// Build the run config an argument set describes (public for the same
/// reason as [`build_dataset`]).
pub fn build_config(args: &Args) -> FlConfig {
    FlConfig {
        model: if args.dataset.to_ascii_lowercase().starts_with("cifar100") {
            fedclust_nn::models::ModelSpec::ResNet9
        } else {
            fedclust_nn::models::ModelSpec::LeNet5
        },
        rounds: args.rounds,
        sample_rate: args.sample_rate,
        local_epochs: args.epochs,
        seed: args.seed,
        dropout_rate: args.dropout,
        faults: FaultPlan {
            downlink_loss: args.downlink_loss,
            max_downlink_retries: args.retries,
            uplink_loss: args.uplink_loss,
            straggler_rate: args.straggler_rate,
            straggler_mean_delay: args.straggler_delay,
            round_deadline: args.deadline,
            corruption_rate: args.corrupt_rate,
        }
        .sanitized(),
        // Validated by the `--codec` row, so a parse failure here can only
        // mean a caller bypassed parsing; fall back to the identity codec.
        codec: fedclust_fl::CodecSpec::parse(&args.codec)
            .unwrap_or_else(|_| fedclust_fl::CodecSpec::none()),
        ..FlConfig::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_paper_methods_are_findable() {
        for name in [
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
            "SCAFFOLD",
            "FedDyn",
        ] {
            assert!(find_method(name).is_some(), "missing {}", name);
            assert!(
                find_method(&name.to_lowercase()).is_some(),
                "case-insensitive {}",
                name
            );
        }
        assert!(find_method("nope").is_none());
    }

    #[test]
    fn dataset_parsing() {
        assert_eq!(parse_dataset("cifar10"), Some(DatasetProfile::Cifar10Like));
        assert_eq!(
            parse_dataset("CIFAR-100"),
            Some(DatasetProfile::Cifar100Like)
        );
        assert_eq!(parse_dataset("fmnist"), Some(DatasetProfile::FmnistLike));
        assert_eq!(parse_dataset("svhn"), Some(DatasetProfile::SvhnLike));
        assert_eq!(parse_dataset("mnist"), None);
    }

    #[test]
    fn partition_parsing() {
        assert_eq!(parse_partition("iid"), Some(Partition::Iid));
        assert_eq!(
            parse_partition("skew20"),
            Some(Partition::LabelSkew { fraction: 0.2 })
        );
        assert_eq!(
            parse_partition("dir0.1"),
            Some(Partition::Dirichlet { alpha: 0.1 })
        );
        assert_eq!(parse_partition("skew200"), None);
        assert_eq!(parse_partition("dir-1"), None);
        assert_eq!(parse_partition("banana"), None);
    }

    #[test]
    fn execute_methods_lists_everything() {
        let args = Args::parse(&["methods".into()]).unwrap();
        let out = execute(&args, None).unwrap();
        assert!(out.contains("FedClust"));
        assert!(out.contains("SCAFFOLD"));
    }

    #[test]
    fn execute_tiny_run() {
        let args = Args::parse(&[
            "run".into(),
            "--method".into(),
            "fedavg".into(),
            "--dataset".into(),
            "fmnist".into(),
            "--partition".into(),
            "skew50".into(),
            "--clients".into(),
            "4".into(),
            "--rounds".into(),
            "1".into(),
            "--epochs".into(),
            "1".into(),
            "--samples-per-class".into(),
            "10".into(),
        ])
        .unwrap();
        let out = execute(&args, None).unwrap();
        assert!(out.contains("FedAvg"), "{}", out);
        assert!(out.contains("final accuracy"), "{}", out);
    }

    #[test]
    fn execute_faulty_run_reports_telemetry() {
        let args = Args::parse(&[
            "run".into(),
            "--method".into(),
            "fedavg".into(),
            "--dataset".into(),
            "fmnist".into(),
            "--partition".into(),
            "skew50".into(),
            "--clients".into(),
            "4".into(),
            "--rounds".into(),
            "2".into(),
            "--epochs".into(),
            "1".into(),
            "--samples-per-class".into(),
            "10".into(),
            "--uplink-loss".into(),
            "0.5".into(),
            "--downlink-loss".into(),
            "0.5".into(),
        ])
        .unwrap();
        let out = execute(&args, None).unwrap();
        assert!(out.contains("final accuracy"), "{}", out);
        assert!(out.contains("faults:"), "{}", out);
    }

    #[test]
    fn execute_cluster_prints_round_zero_whatever_the_round_count() {
        let cluster = |rounds: &str| {
            let argv = [
                "cluster",
                "--dataset",
                "fmnist",
                "--partition",
                "skew50",
                "--clients",
                "6",
                "--rounds",
                rounds,
                "--epochs",
                "1",
                "--samples-per-class",
                "10",
            ];
            Args::parse(&argv.map(String::from)).unwrap()
        };
        let (one, eight) = (cluster("1"), cluster("8"));
        let out = execute(&one, None).unwrap();
        assert_eq!(out, execute(&eight, None).unwrap());
        // The clustering a whole federation leaves behind, as trained.
        let fd = build_dataset(&eight).unwrap();
        let Ok((_, federation)) = run_federation(
            &FedClust::default(),
            &fd,
            &build_config(&eight),
            NoCheckpoints,
            None,
        );
        let saved = &federation.saved;
        let head = format!(
            "one-shot clustering: {} clusters at λ = {:.4}",
            saved.outcome.num_clusters, saved.outcome.lambda
        );
        assert!(out.starts_with(&head), "{out}");
        assert!(
            out.ends_with(&format!("\nassignment: {:?}", saved.labels)),
            "{out}"
        );
    }

    #[test]
    fn build_config_threads_the_codec_through() {
        let args = Args::parse(&[
            "run".into(),
            "--method".into(),
            "fedavg".into(),
            "--codec".into(),
            "delta+q8".into(),
        ])
        .unwrap();
        let cfg = build_config(&args);
        assert_eq!(
            cfg.codec,
            fedclust_fl::CodecSpec::parse("delta+q8").unwrap()
        );
        let args = Args::parse(&["run".into(), "--method".into(), "fedavg".into()]).unwrap();
        assert!(build_config(&args).codec.is_none());
    }

    #[test]
    fn execute_compressed_run() {
        let args = Args::parse(&[
            "run".into(),
            "--method".into(),
            "fedavg".into(),
            "--dataset".into(),
            "fmnist".into(),
            "--partition".into(),
            "skew50".into(),
            "--clients".into(),
            "4".into(),
            "--rounds".into(),
            "1".into(),
            "--epochs".into(),
            "1".into(),
            "--samples-per-class".into(),
            "10".into(),
            "--codec".into(),
            "topk:0.1".into(),
        ])
        .unwrap();
        let out = execute(&args, None).unwrap();
        assert!(out.contains("final accuracy"), "{}", out);
    }

    #[test]
    fn execute_run_rejects_unknown_method() {
        let args = Args::parse(&["run".into(), "--method".into(), "nope".into()]).unwrap();
        assert!(execute(&args, None).is_err());
    }
}
