//! `fedclust-cli`'s arguments: the struct, its flag table and the rules
//! between flags (no external dependencies; the table machinery is in
//! `crate::flags`).

use crate::flags::{self, flag, under, Flag, Given};
use crate::{parse_dataset, parse_partition};
use fedclust_fl::faults::MAX_DOWNLINK_RETRIES;

/// The subcommand to run.
#[derive(Debug, Clone, PartialEq, Default)]
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
    #[default]
    Methods,
}

/// Parsed command-line arguments with defaults suitable for a quick run.
/// (`Default` is the empty value the table's defaults are applied onto, not
/// those defaults: build an `Args` with [`Args::parse`].)
#[derive(Debug, Clone, PartialEq, Default)]
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
    /// Worker threads for parallel client training. `None` leaves the pool
    /// at its default, the machine's available parallelism; `1` is the
    /// exact-sequential escape hatch (results are bit-identical at every
    /// thread count regardless).
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

/// Reject with `msg`.
pub(crate) fn bad<T>(msg: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError(msg.into()))
}

/// What `--help` prints above the option list.
const SYNOPSIS: &str = "\
fedclust-cli — FedClust reproduction command line

USAGE:
  fedclust-cli run --method <name> [options]
  fedclust-cli cluster [options]
  fedclust-cli sweep [--points N] [options]
  fedclust-cli methods
";

const DATASETS: &str = "cifar10 | cifar100 | fmnist | svhn";
const PARTITIONS: &str = "iid | skewNN (percent) | dirX.X (alpha)";
const MAX: usize = usize::MAX;

/// Every flag of `fedclust-cli` — and, forwarded verbatim, of `fedclustd`.
#[rustfmt::skip]
pub(crate) const RUN: &[Flag<Args>] = &[
    under("OPTIONS", flag("--method", "<NAME>", "", "run: the method to run (list them with `fedclust-cli methods`)", set_method)),
    flag("--points", "<N>", "6", "sweep: number of λ grid points, at least 2", set_points),
    flag("--dataset", "<NAME>", "cifar10", DATASETS, |a, g| g.one_of(parse_dataset(g.value).is_some(), DATASETS).map(|v| a.dataset = v)),
    flag("--partition", "<SPEC>", "skew20", PARTITIONS, |a, g| g.one_of(parse_partition(g.value).is_some(), PARTITIONS).map(|v| a.partition = v)),
    flag("--clients", "<N>", "20", "number of clients", |a, g| g.count(1, MAX).map(|n| a.clients = n)),
    flag("--rounds", "<N>", "8", "communication rounds", |a, g| g.count(1, MAX).map(|n| a.rounds = n)),
    flag("--epochs", "<N>", "3", "local epochs", |a, g| g.count(1, MAX).map(|n| a.epochs = n)),
    flag("--sample-rate", "<F>", "0.25", "clients sampled per round, in (0, 1]", |a, g| g.rate().map(|v| a.sample_rate = v)),
    flag("--samples-per-class", "<N>", "100", "pool size per class", |a, g| g.count(1, MAX).map(|n| a.samples_per_class = n)),
    flag("--seed", "<N>", "42", "root seed", |a, g| g.num().map(|n| a.seed = n)),
    flag("--dropout", "<P>", "0", "client dropout probability", |a, g| g.prob().map(|v| a.dropout = v)),
    flag("--uplink-loss", "<P>", "0", "uplink loss probability", |a, g| g.prob().map(|v| a.uplink_loss = v)),
    flag("--downlink-loss", "<P>", "0", "downlink loss per attempt", |a, g| g.prob().map(|v| a.downlink_loss = v)),
    flag("--corrupt-rate", "<P>", "0", "update corruption rate", |a, g| g.prob().map(|v| a.corrupt_rate = v)),
    flag("--straggler-rate", "<P>", "0", "straggler probability", |a, g| g.prob().map(|v| a.straggler_rate = v)),
    flag("--straggler-delay", "<F>", "1.0", "mean straggler delay", |a, g| g.non_negative().map(|v| a.straggler_delay = v)),
    flag("--deadline", "<F>", "1.0", "round deadline", |a, g| g.non_negative().map(|v| a.deadline = v)),
    flag("--retries", "<N>", "2", "downlink retry budget, at most 16", |a, g| g.count(0, MAX_DOWNLINK_RETRIES).map(|n| a.retries = n)),
    flag("--codec", "<SPEC>", "none", "upload compression codec\n\
        none | q8 | q4 | topk:<frac> | delta, joined\n\
        with '+' (delta+q8, delta+q4+sr, ...); 'sr'\n\
        selects stochastic rounding for q8/q4", set_codec),
    flag("--threads", "<N>", "", "worker threads for client training\n\
        (default: all cores, at most 256;\n\
        \x201 = exact-sequential escape hatch — results\n\
        \x20are bit-identical at any thread count)", |a, g| threads(g).map(|n| a.threads = Some(n))),
    flag("--json", "", "", "machine-readable output (run)", |a, _| { a.json = true; Ok(()) }),
    under("CHECKPOINTING (run)", flag("--checkpoint-dir", "<DIR>", "", "write durable round checkpoints under DIR", |a, g| { a.checkpoint_dir = Some(g.text()); Ok(()) })),
    flag("--checkpoint-every", "<N>", "1", "checkpoint cadence in rounds", |a, g| g.count(1, MAX).map(|n| a.checkpoint_every = n)),
    flag("--keep", "<N>", "3", "checkpoint generations to retain", |a, g| g.count(1, MAX).map(|n| a.keep = n)),
    flag("--resume", "", "", "resume from the newest valid checkpoint", |a, _| { a.resume = true; Ok(()) }),
    flag("--crash-after", "<ROUND>", "", "crash injection: exit after this round", |a, g| g.num().map(|n| a.crash_after = Some(n))),
    flag("--crash-mid-write", "", "", "crash injection: tear the checkpoint write", |a, _| { a.crash_mid_write = true; Ok(()) }),
];

/// `--method` belongs to `run`.
fn set_method(args: &mut Args, given: Given) -> Result<(), ParseError> {
    match &mut args.command {
        Command::Run { method } => *method = given.text(),
        _ => return bad("--method only applies to `run`"),
    }
    Ok(())
}

/// `--points` belongs to `sweep`.
fn set_points(args: &mut Args, given: Given) -> Result<(), ParseError> {
    let n = given.count(2, MAX)?;
    match &mut args.command {
        Command::Sweep { points } => *points = n,
        _ => return bad("--points only applies to `sweep`"),
    }
    Ok(())
}

/// The codec grammar has its own parser with precise messages; surface
/// them under the flag name so the fix is obvious.
fn set_codec(args: &mut Args, given: Given) -> Result<(), ParseError> {
    match fedclust_fl::CodecSpec::parse(given.value) {
        Ok(_) => args.codec = given.text(),
        Err(msg) => return bad(format!("{}: {}", given.flag, msg)),
    }
    Ok(())
}

/// `--threads`, for `fedclust-cli` and `fedclust-worker` alike: the
/// thread count's one source.
pub(crate) fn threads(given: Given) -> Result<usize, ParseError> {
    let (flag, max) = (given.flag, rayon::MAX_THREADS);
    let threads: usize = given.num()?;
    if threads == 0 {
        let hint = "(use 1 for the exact-sequential path)";
        return bad(format!("{} must be at least 1, got 0 {}", flag, hint));
    }
    if threads > max {
        return bad(format!("{} must be at most {}, got {}", flag, max, threads));
    }
    Ok(threads)
}

impl Args {
    /// Parse a raw argument list (without the program name).
    pub fn parse(argv: &[String]) -> Result<Args, ParseError> {
        Args::parse_for(argv, &format!("{}{}", SYNOPSIS, flags::render(RUN)))
    }

    /// [`Args::parse`] on behalf of the binary whose `--help` is `usage`.
    pub(crate) fn parse_for(argv: &[String], usage: &str) -> Result<Args, ParseError> {
        // Defaults go through the setters against `sweep`, the one
        // subcommand that owns a defaulted flag (`--points`); the
        // subcommand argv names then takes its place.
        let command = Command::Sweep { points: 0 };
        let mut args = Args {
            command,
            ..Args::default()
        };
        flags::apply_defaults(RUN, &mut args)?;
        let method = String::new();
        match argv.first().map(String::as_str) {
            None => return bad("missing subcommand"),
            Some("run") => args.command = Command::Run { method },
            Some("cluster") => args.command = Command::Cluster,
            Some("sweep") => {}
            Some("methods") => args.command = Command::Methods,
            Some(sub) if sub == "help" || flags::is_help(sub) => return bad(usage),
            Some(other) => return bad(format!("unknown subcommand '{}'\n{}", other, usage)),
        }
        flags::parse(RUN, &mut args, &argv[1..], usage, None)?;
        args.cross_check()?;
        Ok(args)
    }

    /// The rules that relate one flag to another; everything about a
    /// single flag is checked by its row.
    fn cross_check(&self) -> Result<(), ParseError> {
        if matches!(&self.command, Command::Run { method } if method.is_empty()) {
            return bad("`run` requires --method <name>");
        }
        if self.checkpoint_dir.is_none() {
            if self.resume {
                return bad("--resume requires --checkpoint-dir");
            }
            if self.crash_after.is_some() {
                return bad("--crash-after requires --checkpoint-dir");
            }
            if self.crash_mid_write {
                return bad("--crash-mid-write requires --checkpoint-dir");
            }
        }
        if self.crash_mid_write && self.crash_after.is_none() {
            return bad("--crash-mid-write requires --crash-after <round>");
        }
        Ok(())
    }

    /// `--threads`, as [`Args::threads`] holds it. It cannot fail; the
    /// benchmark's replay (`benchmark/README.md`, "Measured surface")
    /// links it by this name and signature.
    pub fn effective_threads(&self) -> Result<Option<usize>, ParseError> {
        Ok(self.threads)
    }
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
        assert!(Args::parse(&argv(&["frobnicate"])).is_err());
        assert!(Args::parse(&argv(&[])).is_err());
    }

    /// `line` parsed, as `{:?}` prints it: every field by name, so a flag
    /// that lands in a neighbour's field (or a new field) shows up here.
    fn parsed(line: &str) -> String {
        let parts: Vec<&str> = line.split_whitespace().collect();
        format!("{:?}", Args::parse(&argv(&parts)).unwrap())
    }

    #[test]
    fn no_flags_means_the_defaults_field_for_field() {
        // The 27 defaults, pinned literally once: what the table's default
        // column yields through the setters is what `Args::defaults` held.
        let defaults = "dataset: \"cifar10\", partition: \"skew20\", clients: 20, rounds: 8, \
            epochs: 3, sample_rate: 0.25, samples_per_class: 100, seed: 42, dropout: 0.0, \
            uplink_loss: 0.0, downlink_loss: 0.0, corrupt_rate: 0.0, straggler_rate: 0.0, \
            straggler_delay: 1.0, deadline: 1.0, retries: 2, codec: \"none\", json: false, \
            checkpoint_dir: None, checkpoint_every: 1, keep: 3, resume: false, \
            crash_after: None, crash_mid_write: false, threads: None }";
        for (sub, command) in [
            ("cluster", "Cluster"),
            ("methods", "Methods"),
            ("sweep", "Sweep { points: 6 }"),
            ("run --method m", "Run { method: \"m\" }"),
        ] {
            assert_eq!(
                parsed(sub),
                format!("Args {{ command: {command}, {defaults}")
            );
        }
    }

    #[test]
    fn every_flag_lands_in_its_own_field_and_the_last_one_wins() {
        let got = parsed(
            "run --clients 3 --method fedavg --dataset svhn --partition dir0.5 --clients 7 \
             --rounds 4 --epochs 2 --sample-rate 0.5 --samples-per-class 9 --seed 11 \
             --dropout 0.125 --uplink-loss 0.25 --downlink-loss 0.375 --corrupt-rate 0.0625 \
             --straggler-rate 0.75 --straggler-delay 0.5 --deadline 2 --retries 5 \
             --codec delta+q8 --json --checkpoint-dir /tmp/ck --checkpoint-every 6 --keep 8 \
             --resume --crash-after 10 --crash-mid-write --threads 12",
        );
        let want = "Args { command: Run { method: \"fedavg\" }, dataset: \"svhn\", \
            partition: \"dir0.5\", clients: 7, rounds: 4, epochs: 2, sample_rate: 0.5, \
            samples_per_class: 9, seed: 11, dropout: 0.125, uplink_loss: 0.25, \
            downlink_loss: 0.375, corrupt_rate: 0.0625, straggler_rate: 0.75, \
            straggler_delay: 0.5, deadline: 2.0, retries: 5, codec: \"delta+q8\", json: true, \
            checkpoint_dir: Some(\"/tmp/ck\"), checkpoint_every: 6, keep: 8, resume: true, \
            crash_after: Some(10), crash_mid_write: true, threads: Some(12) }";
        assert_eq!(got, want);
    }

    #[test]
    fn sweep_points_and_misplaced_flags() {
        let a = Args::parse(&argv(&["sweep", "--points", "8"])).unwrap();
        assert_eq!(a.command, Command::Sweep { points: 8 });
        assert!(Args::parse(&argv(&["cluster", "--points", "8"])).is_err());
        assert!(Args::parse(&argv(&["cluster", "--method", "x"])).is_err());
        // A one-point sweep is refused, not quietly run with two.
        let err = Args::parse(&argv(&["sweep", "--points", "1"])).unwrap_err();
        assert_eq!(err.0, "--points must be at least 2, got 1");
    }

    #[test]
    fn help_returns_usage() {
        let err = Args::parse(&argv(&["--help"])).unwrap_err();
        assert!(err.0.contains("USAGE"));
        for kept in [
            "  fedclust-cli sweep [--points N] [options]\n",
            "\nCHECKPOINTING (run):\n  --checkpoint-dir <DIR> ",
            "upload compression codec (default none)\n                            none | q8 |",
            "\n                             1 = exact-sequential escape hatch",
        ] {
            assert!(err.0.contains(kept), "{kept:?} is not in:\n{}", err.0);
        }
    }

    fn parse_run(extra: &[&str]) -> Result<Args, ParseError> {
        let mut parts = vec!["run", "--method", "fedavg"];
        parts.extend_from_slice(extra);
        Args::parse(&argv(&parts))
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
