//! Command-line argument parsing (no external dependencies).

/// The subcommand to run.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Run one FL method end to end.
    Run {
        /// Method name (case-insensitive).
        method: String,
    },
    /// Run only FedClust's one-shot clustering and print the assignment.
    Cluster,
    /// Sweep the clustering threshold λ (Fig. 4 style).
    Sweep {
        /// Number of λ grid points.
        points: usize,
    },
    /// List available methods.
    Methods,
}

/// Parsed command-line arguments with defaults suitable for a quick run.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// What to do.
    pub command: Command,
    /// Dataset name (`cifar10`, `cifar100`, `fmnist`, `svhn`).
    pub dataset: String,
    /// Partition spec (`iid`, `skewNN`, `dirX.X`).
    pub partition: String,
    /// Number of clients.
    pub clients: usize,
    /// Communication rounds.
    pub rounds: usize,
    /// Local epochs.
    pub epochs: usize,
    /// Client sampling rate per round.
    pub sample_rate: f32,
    /// Pool samples per class.
    pub samples_per_class: usize,
    /// Root seed.
    pub seed: u64,
    /// Client dropout probability.
    pub dropout: f32,
    /// Uplink loss probability (fault injection).
    pub uplink_loss: f32,
    /// Per-attempt downlink loss probability (fault injection).
    pub downlink_loss: f32,
    /// Update corruption probability (fault injection).
    pub corrupt_rate: f32,
    /// Straggler probability (fault injection).
    pub straggler_rate: f32,
    /// Mean straggler delay, in units of the round deadline scale.
    pub straggler_delay: f32,
    /// Round deadline; straggler uploads later than this are dropped.
    pub deadline: f32,
    /// Downlink retry budget per client per round.
    pub retries: usize,
    /// Upload compression codec spec (`none`, `q8`, `q4`, `topk:<frac>`,
    /// `delta`, and `+`-joined combinations like `delta+q8+sr`).
    pub codec: String,
    /// Emit machine-readable JSON instead of text (run subcommand).
    pub json: bool,
    /// Directory for durable round checkpoints (`run` subcommand). `None`
    /// disables checkpointing entirely.
    pub checkpoint_dir: Option<String>,
    /// Write a checkpoint every N rounds.
    pub checkpoint_every: usize,
    /// Number of checkpoint generations to retain.
    pub keep: usize,
    /// Resume from the newest valid checkpoint in `--checkpoint-dir`.
    pub resume: bool,
    /// Crash-injection: kill the process after this round completes.
    pub crash_after: Option<usize>,
    /// Crash-injection: die halfway through the checkpoint write (torn
    /// write), exercising the atomic-rename recovery path.
    pub crash_mid_write: bool,
    /// Worker threads for parallel client training. `None` defers to
    /// `FEDCLUST_THREADS` or the machine's available parallelism; `1` is
    /// the exact-sequential escape hatch (results are bit-identical at
    /// every thread count regardless).
    pub threads: Option<usize>,
}

/// A parse failure with a user-facing message.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError(pub String);

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Usage text printed on `--help` or a parse error.
pub const USAGE: &str = "\
fedclust-cli — FedClust reproduction command line

USAGE:
  fedclust-cli run --method <name> [options]
  fedclust-cli cluster [options]
  fedclust-cli sweep [--points N] [options]
  fedclust-cli methods

OPTIONS:
  --dataset <cifar10|cifar100|fmnist|svhn>   (default cifar10)
  --partition <iid|skewNN|dirX.X>            (default skew20)
  --clients <N>             number of clients          (default 20)
  --rounds <N>              communication rounds       (default 8)
  --epochs <N>              local epochs               (default 3)
  --sample-rate <F>         clients sampled per round  (default 0.25)
  --samples-per-class <N>   pool size per class        (default 100)
  --seed <N>                root seed                  (default 42)
  --dropout <F>             client dropout probability (default 0)
  --uplink-loss <F>         uplink loss probability    (default 0)
  --downlink-loss <F>       downlink loss per attempt  (default 0)
  --corrupt-rate <F>        update corruption rate     (default 0)
  --straggler-rate <F>      straggler probability      (default 0)
  --straggler-delay <F>     mean straggler delay       (default 1.0)
  --deadline <F>            round deadline             (default 1.0)
  --retries <N>             downlink retry budget      (default 2)
  --codec <SPEC>            upload compression codec   (default none)
                            none | q8 | q4 | topk:<frac> | delta, joined
                            with '+' (delta+q8, delta+q4+sr, ...); 'sr'
                            selects stochastic rounding for q8/q4
  --threads <N>             worker threads for client training
                            (default: FEDCLUST_THREADS, else all cores;
                             1 = exact-sequential escape hatch — results
                             are bit-identical at any thread count)
  --json                    machine-readable output (run)

CHECKPOINTING (run):
  --checkpoint-dir <DIR>    write durable round checkpoints under DIR
  --checkpoint-every <N>    checkpoint cadence in rounds           (default 1)
  --keep <N>                checkpoint generations to retain       (default 3)
  --resume                  resume from the newest valid checkpoint
  --crash-after <ROUND>     crash injection: exit after this round
  --crash-mid-write         crash injection: tear the checkpoint write
";

impl Args {
    fn defaults(command: Command) -> Args {
        Args {
            command,
            dataset: "cifar10".into(),
            partition: "skew20".into(),
            clients: 20,
            rounds: 8,
            epochs: 3,
            sample_rate: 0.25,
            samples_per_class: 100,
            seed: 42,
            dropout: 0.0,
            uplink_loss: 0.0,
            downlink_loss: 0.0,
            corrupt_rate: 0.0,
            straggler_rate: 0.0,
            straggler_delay: 1.0,
            deadline: 1.0,
            retries: 2,
            codec: "none".into(),
            json: false,
            checkpoint_dir: None,
            checkpoint_every: 1,
            keep: 3,
            resume: false,
            crash_after: None,
            crash_mid_write: false,
            threads: None,
        }
    }

    /// Parse a raw argument list (without the program name).
    pub fn parse(argv: &[String]) -> Result<Args, ParseError> {
        let mut it = argv.iter().peekable();
        let sub = it
            .next()
            .ok_or_else(|| ParseError("missing subcommand".into()))?;
        let mut args = match sub.as_str() {
            "run" => Args::defaults(Command::Run {
                method: String::new(),
            }),
            "cluster" => Args::defaults(Command::Cluster),
            "sweep" => Args::defaults(Command::Sweep { points: 6 }),
            "methods" => Args::defaults(Command::Methods),
            "--help" | "-h" | "help" => return Err(ParseError(USAGE.into())),
            other => {
                return Err(ParseError(format!(
                    "unknown subcommand '{}'\n{}",
                    other, USAGE
                )))
            }
        };

        while let Some(flag) = it.next() {
            let mut value = |name: &str| -> Result<&String, ParseError> {
                it.next()
                    .ok_or_else(|| ParseError(format!("{} requires a value", name)))
            };
            match flag.as_str() {
                "--method" => {
                    let v = value("--method")?.clone();
                    if let Command::Run { method } = &mut args.command {
                        *method = v;
                    } else {
                        return Err(ParseError("--method only applies to `run`".into()));
                    }
                }
                "--points" => {
                    let v: usize = parse_num(value("--points")?, "--points")?;
                    if let Command::Sweep { points } = &mut args.command {
                        *points = v.max(2);
                    } else {
                        return Err(ParseError("--points only applies to `sweep`".into()));
                    }
                }
                "--dataset" => args.dataset = value("--dataset")?.clone(),
                "--partition" => args.partition = value("--partition")?.clone(),
                "--clients" => args.clients = parse_num(value("--clients")?, "--clients")?,
                "--rounds" => args.rounds = parse_num(value("--rounds")?, "--rounds")?,
                "--epochs" => args.epochs = parse_num(value("--epochs")?, "--epochs")?,
                "--sample-rate" => {
                    args.sample_rate = parse_num(value("--sample-rate")?, "--sample-rate")?
                }
                "--samples-per-class" => {
                    args.samples_per_class =
                        parse_num(value("--samples-per-class")?, "--samples-per-class")?
                }
                "--seed" => args.seed = parse_num(value("--seed")?, "--seed")?,
                "--dropout" => args.dropout = parse_num(value("--dropout")?, "--dropout")?,
                "--uplink-loss" => {
                    args.uplink_loss = parse_num(value("--uplink-loss")?, "--uplink-loss")?
                }
                "--downlink-loss" => {
                    args.downlink_loss = parse_num(value("--downlink-loss")?, "--downlink-loss")?
                }
                "--corrupt-rate" => {
                    args.corrupt_rate = parse_num(value("--corrupt-rate")?, "--corrupt-rate")?
                }
                "--straggler-rate" => {
                    args.straggler_rate = parse_num(value("--straggler-rate")?, "--straggler-rate")?
                }
                "--straggler-delay" => {
                    args.straggler_delay =
                        parse_num(value("--straggler-delay")?, "--straggler-delay")?
                }
                "--deadline" => args.deadline = parse_num(value("--deadline")?, "--deadline")?,
                "--retries" => args.retries = parse_num(value("--retries")?, "--retries")?,
                "--codec" => args.codec = value("--codec")?.clone(),
                "--json" => args.json = true,
                "--checkpoint-dir" => {
                    args.checkpoint_dir = Some(value("--checkpoint-dir")?.clone())
                }
                "--checkpoint-every" => {
                    args.checkpoint_every =
                        parse_num(value("--checkpoint-every")?, "--checkpoint-every")?
                }
                "--keep" => args.keep = parse_num(value("--keep")?, "--keep")?,
                "--resume" => args.resume = true,
                "--crash-after" => {
                    args.crash_after = Some(parse_num(value("--crash-after")?, "--crash-after")?)
                }
                "--crash-mid-write" => args.crash_mid_write = true,
                "--threads" => args.threads = Some(parse_num(value("--threads")?, "--threads")?),
                other => return Err(ParseError(format!("unknown option '{}'\n{}", other, USAGE))),
            }
        }
        if let Command::Run { method } = &args.command {
            if method.is_empty() {
                return Err(ParseError("`run` requires --method <name>".into()));
            }
        }
        args.validate()?;
        Ok(args)
    }

    /// Range- and consistency-check parsed values. Every message names the
    /// flag and the offending value so the fix is obvious from the error
    /// alone.
    fn validate(&self) -> Result<(), ParseError> {
        for (flag, value) in [
            ("--clients", self.clients),
            ("--rounds", self.rounds),
            ("--epochs", self.epochs),
            ("--samples-per-class", self.samples_per_class),
        ] {
            if value == 0 {
                return Err(ParseError(format!(
                    "{} must be at least 1, got {}",
                    flag, value
                )));
            }
        }
        for (flag, value) in [
            ("--dropout", self.dropout),
            ("--uplink-loss", self.uplink_loss),
            ("--downlink-loss", self.downlink_loss),
            ("--corrupt-rate", self.corrupt_rate),
            ("--straggler-rate", self.straggler_rate),
        ] {
            check_prob(flag, value)?;
        }
        if self.sample_rate.is_nan() {
            return Err(ParseError(
                "--sample-rate is NaN; it must be in (0, 1]".into(),
            ));
        }
        if !(0.0 < self.sample_rate && self.sample_rate <= 1.0) {
            return Err(ParseError(format!(
                "--sample-rate must be in (0, 1], got {}",
                self.sample_rate
            )));
        }
        // Timing scales: `< 0.0` is false for NaN, so check NaN explicitly
        // — otherwise a NaN delay/deadline would slip through to the fault
        // injector.
        for (flag, value) in [
            ("--straggler-delay", self.straggler_delay),
            ("--deadline", self.deadline),
        ] {
            if value.is_nan() {
                return Err(ParseError(format!(
                    "{} is NaN; it must be a non-negative number",
                    flag
                )));
            }
            if value < 0.0 {
                return Err(ParseError(format!(
                    "{} must be non-negative, got {}",
                    flag, value
                )));
            }
        }
        // The codec grammar has its own parser with precise messages;
        // surface them under the flag name so the fix is obvious.
        if let Err(msg) = fedclust_fl::CodecSpec::parse(&self.codec) {
            return Err(ParseError(format!("--codec: {}", msg)));
        }
        if self.checkpoint_every == 0 {
            return Err(ParseError("--checkpoint-every must be at least 1".into()));
        }
        if self.keep == 0 {
            return Err(ParseError("--keep must be at least 1".into()));
        }
        if self.checkpoint_dir.is_none() {
            if self.resume {
                return Err(ParseError("--resume requires --checkpoint-dir".into()));
            }
            if self.crash_after.is_some() {
                return Err(ParseError("--crash-after requires --checkpoint-dir".into()));
            }
            if self.crash_mid_write {
                return Err(ParseError(
                    "--crash-mid-write requires --checkpoint-dir".into(),
                ));
            }
        }
        if self.crash_mid_write && self.crash_after.is_none() {
            return Err(ParseError(
                "--crash-mid-write requires --crash-after <round>".into(),
            ));
        }
        if let Some(threads) = self.threads {
            validate_threads("--threads", &threads.to_string(), threads)?;
        }
        Ok(())
    }

    /// The thread count this invocation should run with: `--threads` wins,
    /// then a strictly validated `FEDCLUST_THREADS`, then `None` (let the
    /// pool default to available parallelism).
    pub fn effective_threads(&self) -> Result<Option<usize>, ParseError> {
        if self.threads.is_some() {
            return Ok(self.threads);
        }
        threads_from_env(std::env::var("FEDCLUST_THREADS").ok().as_deref())
    }
}

/// Shared range check for thread counts: zero and absurd values are
/// rejected with the offending source (flag or env var) and value named.
fn validate_threads(source: &str, raw: &str, threads: usize) -> Result<(), ParseError> {
    if threads == 0 {
        return Err(ParseError(format!(
            "{} must be at least 1, got {} (use 1 for the exact-sequential path)",
            source, raw
        )));
    }
    if threads > rayon::MAX_THREADS {
        return Err(ParseError(format!(
            "{} must be at most {}, got {}",
            source,
            rayon::MAX_THREADS,
            raw
        )));
    }
    Ok(())
}

/// Strictly validate a `FEDCLUST_THREADS` value from the environment.
/// (The rayon pool itself parses the variable leniently so library users
/// are never broken by a stray export; the CLI refuses malformed values
/// loudly so a typo'd job script cannot silently run sequentially.)
pub fn threads_from_env(raw: Option<&str>) -> Result<Option<usize>, ParseError> {
    let Some(raw) = raw else { return Ok(None) };
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return Ok(None);
    }
    let threads: usize = trimmed.parse().map_err(|_| {
        ParseError(format!(
            "invalid value '{}' for FEDCLUST_THREADS; expected a thread count in [1, {}]",
            raw,
            rayon::MAX_THREADS
        ))
    })?;
    validate_threads("FEDCLUST_THREADS", trimmed, threads)?;
    Ok(Some(threads))
}

/// Parse one flag value; the error names the flag and echoes the value.
pub(crate) fn parse_num<T: std::str::FromStr>(s: &str, flag: &str) -> Result<T, ParseError> {
    s.parse()
        .map_err(|_| ParseError(format!("invalid value '{}' for {}", s, flag)))
}

/// Range-check a probability flag. NaN fails `contains` too, but is called
/// out explicitly so the message never reads "NaN must be in [0, 1]".
pub(crate) fn check_prob(flag: &str, value: f32) -> Result<(), ParseError> {
    if value.is_nan() {
        return Err(ParseError(format!(
            "{} is NaN; it must be a probability in [0, 1]",
            flag
        )));
    }
    if !(0.0..=1.0).contains(&value) {
        return Err(ParseError(format!(
            "{} must be in [0, 1], got {}",
            flag, value
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn run_requires_method() {
        assert!(Args::parse(&argv(&["run"])).is_err());
        let a = Args::parse(&argv(&["run", "--method", "fedclust"])).unwrap();
        assert_eq!(
            a.command,
            Command::Run {
                method: "fedclust".into()
            }
        );
    }

    #[test]
    fn defaults_are_applied() {
        let a = Args::parse(&argv(&["cluster"])).unwrap();
        assert_eq!(a.dataset, "cifar10");
        assert_eq!(a.partition, "skew20");
        assert_eq!(a.clients, 20);
        assert!(!a.json);
    }

    #[test]
    fn options_override_defaults() {
        let a = Args::parse(&argv(&[
            "run",
            "--method",
            "fedavg",
            "--clients",
            "7",
            "--rounds",
            "3",
            "--seed",
            "9",
            "--dropout",
            "0.25",
            "--json",
        ]))
        .unwrap();
        assert_eq!(a.clients, 7);
        assert_eq!(a.rounds, 3);
        assert_eq!(a.seed, 9);
        assert!((a.dropout - 0.25).abs() < 1e-6);
        assert!(a.json);
    }

    #[test]
    fn sweep_points_and_misplaced_flags() {
        let a = Args::parse(&argv(&["sweep", "--points", "8"])).unwrap();
        assert_eq!(a.command, Command::Sweep { points: 8 });
        assert!(Args::parse(&argv(&["cluster", "--points", "8"])).is_err());
        assert!(Args::parse(&argv(&["cluster", "--method", "x"])).is_err());
    }

    #[test]
    fn invalid_values_are_rejected() {
        assert!(Args::parse(&argv(&["run", "--method", "x", "--clients", "zero"])).is_err());
        // A zero count names its flag and its value.
        for flag in ["--clients", "--rounds", "--epochs", "--samples-per-class"] {
            let err = Args::parse(&argv(&["run", "--method", "x", flag, "0"])).unwrap_err();
            assert_eq!(err.0, format!("{flag} must be at least 1, got 0"));
        }
        assert!(Args::parse(&argv(&["run", "--method", "x", "--dropout", "1.5"])).is_err());
        assert!(Args::parse(&argv(&["run", "--method", "x", "--sample-rate", "0"])).is_err());
        assert!(Args::parse(&argv(&["frobnicate"])).is_err());
        assert!(Args::parse(&argv(&[])).is_err());
    }

    #[test]
    fn fault_flags_parse_and_validate() {
        let a = Args::parse(&argv(&[
            "run",
            "--method",
            "fedclust",
            "--uplink-loss",
            "0.3",
            "--downlink-loss",
            "0.1",
            "--corrupt-rate",
            "0.05",
            "--straggler-rate",
            "0.2",
            "--straggler-delay",
            "0.5",
            "--deadline",
            "2.0",
            "--retries",
            "4",
        ]))
        .unwrap();
        assert!((a.uplink_loss - 0.3).abs() < 1e-6);
        assert!((a.downlink_loss - 0.1).abs() < 1e-6);
        assert!((a.corrupt_rate - 0.05).abs() < 1e-6);
        assert!((a.straggler_rate - 0.2).abs() < 1e-6);
        assert!((a.straggler_delay - 0.5).abs() < 1e-6);
        assert!((a.deadline - 2.0).abs() < 1e-6);
        assert_eq!(a.retries, 4);
        // Defaults keep every fault channel off.
        let d = Args::parse(&argv(&["run", "--method", "fedavg"])).unwrap();
        assert_eq!(d.uplink_loss, 0.0);
        assert_eq!(d.retries, 2);
        // Probabilities outside [0, 1] and negative times are rejected.
        assert!(Args::parse(&argv(&["run", "--method", "x", "--uplink-loss", "1.5"])).is_err());
        assert!(Args::parse(&argv(&["run", "--method", "x", "--corrupt-rate", "-0.1"])).is_err());
        assert!(Args::parse(&argv(&["run", "--method", "x", "--deadline", "-1"])).is_err());
    }

    #[test]
    fn help_returns_usage() {
        let err = Args::parse(&argv(&["--help"])).unwrap_err();
        assert!(err.0.contains("USAGE"));
    }

    fn parse_run(extra: &[&str]) -> Result<Args, ParseError> {
        let mut parts = vec!["run", "--method", "fedavg"];
        parts.extend_from_slice(extra);
        Args::parse(&argv(&parts))
    }

    #[test]
    fn nan_probabilities_are_rejected_per_flag() {
        for flag in [
            "--sample-rate",
            "--dropout",
            "--uplink-loss",
            "--downlink-loss",
            "--corrupt-rate",
            "--straggler-rate",
        ] {
            let err = parse_run(&[flag, "NaN"]).unwrap_err();
            assert!(err.0.contains(flag), "{}: {}", flag, err);
            assert!(err.0.contains("NaN"), "{}: {}", flag, err);
        }
    }

    #[test]
    fn nan_timing_values_are_rejected() {
        // Regression: `< 0.0` is false for NaN, so these once slipped
        // through validation silently.
        for flag in ["--straggler-delay", "--deadline"] {
            let err = parse_run(&[flag, "NaN"]).unwrap_err();
            assert!(err.0.contains(flag), "{}: {}", flag, err);
            assert!(err.0.contains("NaN"), "{}: {}", flag, err);
        }
    }

    #[test]
    fn out_of_range_errors_name_flag_and_value() {
        let err = parse_run(&["--dropout", "1.5"]).unwrap_err();
        assert!(
            err.0.contains("--dropout") && err.0.contains("1.5"),
            "{}",
            err
        );
        let err = parse_run(&["--uplink-loss", "-0.2"]).unwrap_err();
        assert!(
            err.0.contains("--uplink-loss") && err.0.contains("-0.2"),
            "{}",
            err
        );
        let err = parse_run(&["--sample-rate", "0"]).unwrap_err();
        assert!(err.0.contains("--sample-rate"), "{}", err);
        let err = parse_run(&["--deadline", "-3"]).unwrap_err();
        assert!(
            err.0.contains("--deadline") && err.0.contains("-3"),
            "{}",
            err
        );
    }

    #[test]
    fn checkpoint_flags_parse() {
        let a = parse_run(&[
            "--checkpoint-dir",
            "/tmp/ck",
            "--checkpoint-every",
            "2",
            "--keep",
            "5",
            "--resume",
        ])
        .unwrap();
        assert_eq!(a.checkpoint_dir.as_deref(), Some("/tmp/ck"));
        assert_eq!(a.checkpoint_every, 2);
        assert_eq!(a.keep, 5);
        assert!(a.resume);
        assert_eq!(a.crash_after, None);
        assert!(!a.crash_mid_write);

        let a = parse_run(&[
            "--checkpoint-dir",
            "/tmp/ck",
            "--crash-after",
            "3",
            "--crash-mid-write",
        ])
        .unwrap();
        assert_eq!(a.crash_after, Some(3));
        assert!(a.crash_mid_write);
    }

    #[test]
    fn threads_flag_parses_and_validates() {
        // Explicit counts, including the documented exact-sequential
        // escape hatch `--threads 1`, parse through.
        let a = parse_run(&["--threads", "4"]).unwrap();
        assert_eq!(a.threads, Some(4));
        let a = parse_run(&["--threads", "1"]).unwrap();
        assert_eq!(a.threads, Some(1));
        // Unset defers to the environment / pool default.
        let a = parse_run(&[]).unwrap();
        assert_eq!(a.threads, None);

        // Zero, absurd, and malformed values are rejected with the flag
        // and the offending value in the message.
        let err = parse_run(&["--threads", "0"]).unwrap_err();
        assert!(
            err.0.contains("--threads") && err.0.contains('0'),
            "{}",
            err
        );
        let err = parse_run(&["--threads", "100000"]).unwrap_err();
        assert!(
            err.0.contains("--threads") && err.0.contains("100000"),
            "{}",
            err
        );
        let err = parse_run(&["--threads", "many"]).unwrap_err();
        assert!(
            err.0.contains("--threads") && err.0.contains("many"),
            "{}",
            err
        );
        let err = parse_run(&["--threads", "-2"]).unwrap_err();
        assert!(
            err.0.contains("--threads") && err.0.contains("-2"),
            "{}",
            err
        );
    }

    #[test]
    fn env_thread_counts_are_strictly_validated() {
        assert_eq!(threads_from_env(None).unwrap(), None);
        assert_eq!(threads_from_env(Some("")).unwrap(), None);
        assert_eq!(threads_from_env(Some("  ")).unwrap(), None);
        assert_eq!(threads_from_env(Some("4")).unwrap(), Some(4));
        assert_eq!(threads_from_env(Some(" 2 ")).unwrap(), Some(2));

        let err = threads_from_env(Some("banana")).unwrap_err();
        assert!(
            err.0.contains("FEDCLUST_THREADS") && err.0.contains("banana"),
            "{}",
            err
        );
        let err = threads_from_env(Some("0")).unwrap_err();
        assert!(
            err.0.contains("FEDCLUST_THREADS") && err.0.contains('0'),
            "{}",
            err
        );
        let err = threads_from_env(Some("99999")).unwrap_err();
        assert!(
            err.0.contains("FEDCLUST_THREADS") && err.0.contains("99999"),
            "{}",
            err
        );
        let err = threads_from_env(Some("-3")).unwrap_err();
        assert!(
            err.0.contains("FEDCLUST_THREADS") && err.0.contains("-3"),
            "{}",
            err
        );
    }

    #[test]
    fn codec_flag_parses_and_validates() {
        // Default is the identity codec.
        let a = parse_run(&[]).unwrap();
        assert_eq!(a.codec, "none");
        // Every documented spec shape parses through.
        for spec in [
            "none",
            "q8",
            "q4",
            "topk:0.1",
            "delta",
            "delta+q8",
            "delta+q4+sr",
        ] {
            let a = parse_run(&["--codec", spec]).unwrap();
            assert_eq!(a.codec, spec);
        }
        // Malformed specs are rejected with the flag named, in the
        // PR-established style: flag + offending value in the message.
        for bad in [
            "zstd",
            "q8+q4",
            "topk:0",
            "topk:1.5",
            "topk:NaN",
            "sr",
            "delta+none",
        ] {
            let err = parse_run(&["--codec", bad]).unwrap_err();
            assert!(err.0.contains("--codec"), "{}: {}", bad, err);
            assert!(err.0.contains(bad), "{}: {}", bad, err);
        }
        // A missing value is called out like every other flag.
        let err = Args::parse(&argv(&["run", "--method", "x", "--codec"])).unwrap_err();
        assert!(err.0.contains("--codec"), "{}", err);
    }

    #[test]
    fn checkpoint_flag_consistency_is_enforced() {
        // Flags that act on a checkpoint directory require one.
        assert!(parse_run(&["--resume"]).is_err());
        assert!(parse_run(&["--crash-after", "1"]).is_err());
        assert!(parse_run(&["--crash-mid-write"]).is_err());
        // A torn write only happens during a crash.
        assert!(parse_run(&["--checkpoint-dir", "/tmp/ck", "--crash-mid-write"]).is_err());
        // Cadence and retention must be positive.
        assert!(parse_run(&["--checkpoint-dir", "/tmp/ck", "--checkpoint-every", "0"]).is_err());
        assert!(parse_run(&["--checkpoint-dir", "/tmp/ck", "--keep", "0"]).is_err());
    }
}
