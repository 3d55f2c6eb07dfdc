//! Arguments of the networked binaries (`fedclustd`, `fedclust-worker`,
//! `fedclust-chaos`): the structs, their flag tables and the rules between
//! flags.
//!
//! `fedclustd` is a thin networked wrapper around the ordinary `run`
//! subcommand: every token that is not one of its own three flags is
//! forwarded verbatim to [`Args::parse`] with `run` prepended, and that
//! *exact* argv is what the server ships to workers in its `Welcome` so
//! both sides rebuild the same dataset and config. Validation follows the
//! same discipline as `args.rs`: every rejection names the flag and echoes
//! the offending value, NaN is never accepted where a number is expected,
//! and cross-flag rules are checked after parsing.

use crate::args::{bad, threads, Args, Command, ParseError, RUN};
use crate::flags::{self, flag, under, Flag};
use crate::net::KEEP_ALIVE;
use crate::{all_methods, find_method};

/// Arguments for the `fedclustd` federation server.
#[derive(Debug, Clone, Default)]
pub struct ServeArgs {
    /// `--listen HOST:PORT`. Port 0 asks the OS for a free port; the bound
    /// address is printed to stderr for discovery.
    pub listen: String,
    /// `--min-workers N`: block the run until this many workers complete
    /// the handshake (startup barrier).
    pub min_workers: usize,
    /// `--round-timeout SECS`: per-round deadline after which outstanding
    /// clients are written off as lost. `0` disables the deadline.
    pub round_timeout: f64,
    /// The forwarded `run` invocation (validated).
    pub run: Args,
    /// The canonical argv (starting with `run`) shipped in `Welcome`.
    pub run_argv: Vec<String>,
}

#[rustfmt::skip]
pub(crate) const SERVE: &[Flag<ServeArgs>] = &[
    under("SERVER OPTIONS", flag("--listen", "<HOST:PORT>", "127.0.0.1:7878", "where workers connect; port 0 asks the OS for a free port", |a, g| g.addr().map(|v| a.listen = v))),
    flag("--min-workers", "<N>", "1", "start once this many workers have joined, 1 to 1024", |a, g| g.count(1, 1024).map(|n| a.min_workers = n)),
    flag("--round-timeout", "<SECS>", "120", "write off a round's stragglers after this long; 0 never, at most 3600", |a, g| g.seconds(None).map(|v| a.round_timeout = v)),
];

const SERVE_HEAD: &str = "\
fedclustd — `fedclust-cli run` with training farmed out to a worker fleet

USAGE:
  fedclustd --method <name> [server options] [options]
  (every option that is not a server option is `run`'s, and is shipped to
  the workers exactly as typed)
";

impl ServeArgs {
    pub fn parse(argv: &[String]) -> Result<ServeArgs, ParseError> {
        let usage = format!(
            "{}{}{}",
            SERVE_HEAD,
            flags::render(SERVE),
            flags::render(RUN)
        );
        let mut out = ServeArgs::default();
        let mut forwarded = vec!["run".to_string()];
        flags::apply_defaults(SERVE, &mut out)?;
        flags::parse(SERVE, &mut out, argv, &usage, Some(&mut forwarded))?;
        out.run = Args::parse_for(&forwarded, &usage)?;
        out.run_argv = forwarded;
        out.cross_check()?;
        Ok(out)
    }

    /// `fedclustd` serves `run`, and only methods a fleet can train.
    fn cross_check(&self) -> Result<(), ParseError> {
        let Command::Run { method } = &self.run.command else {
            return bad("fedclustd only serves the run subcommand; pass run flags directly");
        };
        let Some(m) = find_method(method) else {
            return bad(format!("unknown method '{}'", method));
        };
        // A `Work` frame carries plain SGD only: a method with another
        // local rule (SCAFFOLD's control variates, LG's kept state, …) or
        // client work outside its units is rejected here, before any of
        // its units can reach the fleet.
        if !m.distributes() {
            let networked: Vec<String> = all_methods()
                .iter()
                .filter(|m| m.distributes())
                .map(|m| m.name().to_lowercase())
                .collect();
            return bad(format!(
                "method '{}' cannot be distributed (client-side state); \
                 networked methods: {}",
                method,
                networked.join(", ")
            ));
        }
        Ok(())
    }
}

/// Arguments for the `fedclust-worker` client process.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WorkerArgs {
    /// `--connect HOST:PORT` (required).
    pub connect: String,
    /// `--reconnects N`: reconnect budget across the whole run. Workers
    /// must outlive a server SIGKILL + resume, so the default is generous.
    pub reconnects: usize,
    /// `--backoff-base SECS` for the shared reconnect backoff.
    pub backoff_base: f64,
    /// `--io-timeout SECS`: read timeout while waiting for the server; a
    /// stalled connection (e.g. a chaos-dropped frame) is torn down and
    /// redialled after this long. Above `net::KEEP_ALIVE`: an idle server
    /// is only heard from that often.
    pub io_timeout: f64,
    /// `--threads N` for local training parallelism.
    pub threads: Option<usize>,
    /// `--die-after N` (test hook): exit with the crash code after the
    /// N-th acknowledged push.
    pub die_after: Option<usize>,
    /// `--die-mid-push N` (test hook): write half of the N-th push frame,
    /// then exit with the crash code (torn upload).
    pub die_mid_push: Option<usize>,
}

/// The most `--reconnects` a `RetryPolicy` holds exactly: one attempt
/// more must still fit its `u32`.
const MAX_RECONNECTS: usize = u32::MAX as usize - 1;

#[rustfmt::skip]
pub(crate) const WORKER: &[Flag<WorkerArgs>] = &[
    under("OPTIONS", flag("--connect", "<HOST:PORT>", "", "the server (or chaos proxy) to dial; required", |a, g| g.addr().map(|v| a.connect = v))),
    flag("--reconnects", "<N>", "1000", "reconnect budget across the whole run", |a, g| g.count(0, MAX_RECONNECTS).map(|n| a.reconnects = n)),
    flag("--backoff-base", "<SECS>", "0.05", "base of the reconnect backoff, in (0, 3600]", |a, g| g.seconds(Some(0.0)).map(|v| a.backoff_base = v)),
    flag("--io-timeout", "<SECS>", "5", "redial a connection silent for this long, in (0.2, 3600]: an idle server speaks every 0.2 s", |a, g| g.seconds(Some(KEEP_ALIVE.as_secs_f64())).map(|v| a.io_timeout = v)),
    flag("--threads", "<N>", "", "worker threads for local training (default: all cores, at most 256)", |a, g| threads(g).map(|n| a.threads = Some(n))),
    flag("--die-after", "<N>", "", "test hook: crash after the N-th acknowledged push", |a, g| g.num().map(|n| a.die_after = Some(n))),
    flag("--die-mid-push", "<N>", "", "test hook: crash halfway through the N-th push frame", |a, g| g.num().map(|n| a.die_mid_push = Some(n))),
];

const WORKER_HEAD: &str = "\
fedclust-worker — trains the clients a fedclustd leases to it

USAGE:
  fedclust-worker --connect <HOST:PORT> [options]
";

impl WorkerArgs {
    pub fn parse(argv: &[String]) -> Result<WorkerArgs, ParseError> {
        let usage = format!("{}{}", WORKER_HEAD, flags::render(WORKER));
        let mut out = WorkerArgs::default();
        flags::apply_defaults(WORKER, &mut out)?;
        flags::parse(WORKER, &mut out, argv, &usage, None)?;
        if out.connect.is_empty() {
            return bad("--connect HOST:PORT is required");
        }
        if out.die_after.is_some() && out.die_mid_push.is_some() {
            return bad("--die-after and --die-mid-push are mutually exclusive");
        }
        Ok(out)
    }
}

/// Arguments for the `fedclust-chaos` frame-mangling proxy.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ChaosArgs {
    /// `--listen HOST:PORT` (required): where workers connect.
    pub listen: String,
    /// `--connect HOST:PORT` (required): the real server upstream.
    pub connect: String,
    /// `--chaos-seed N`: root of the deterministic fate schedule.
    pub chaos_seed: u64,
    /// `--drop P`: probability a frame is silently swallowed.
    pub drop: f32,
    /// `--delay P`: probability a frame is forwarded after `--delay-ms`.
    pub delay: f32,
    /// `--truncate P`: probability a frame is cut in half and the
    /// connection closed.
    pub truncate: f32,
    /// `--corrupt P`: probability one payload byte is flipped (the
    /// checksum catches it on the far side).
    pub corrupt: f32,
    /// `--delay-ms N`: how long a delayed frame waits.
    pub delay_ms: u64,
}

#[rustfmt::skip]
pub(crate) const CHAOS: &[Flag<ChaosArgs>] = &[
    under("OPTIONS", flag("--listen", "<HOST:PORT>", "", "where workers connect; required", |a, g| g.addr().map(|v| a.listen = v))),
    flag("--connect", "<HOST:PORT>", "", "the real server upstream; required", |a, g| g.addr().map(|v| a.connect = v)),
    flag("--chaos-seed", "<N>", "0", "root of the deterministic fate schedule", |a, g| g.num().map(|n| a.chaos_seed = n)),
    flag("--drop", "<P>", "0", "probability a frame is silently swallowed", |a, g| g.prob().map(|v| a.drop = v)),
    flag("--delay", "<P>", "0", "probability a frame is held back for the delay below", |a, g| g.prob().map(|v| a.delay = v)),
    flag("--truncate", "<P>", "0", "probability a frame is cut in half and the connection closed", |a, g| g.prob().map(|v| a.truncate = v)),
    flag("--corrupt", "<P>", "0", "probability one payload byte is flipped", |a, g| g.prob().map(|v| a.corrupt = v)),
    flag("--delay-ms", "<N>", "50", "how long a delayed frame waits, at most 60000", |a, g| g.count(0, 60_000).map(|n| a.delay_ms = n as u64)),
];

const CHAOS_HEAD: &str = "\
fedclust-chaos — a proxy that drops, delays, truncates and corrupts frames

USAGE:
  fedclust-chaos --listen <HOST:PORT> --connect <HOST:PORT> [options]
";

impl ChaosArgs {
    pub fn parse(argv: &[String]) -> Result<ChaosArgs, ParseError> {
        let usage = format!("{}{}", CHAOS_HEAD, flags::render(CHAOS));
        let mut out = ChaosArgs::default();
        flags::apply_defaults(CHAOS, &mut out)?;
        flags::parse(CHAOS, &mut out, argv, &usage, None)?;
        // Cross-flag rule: chaos flags only make sense in networked mode,
        // i.e. with both ends of the proxy configured.
        if out.listen.is_empty() || out.connect.is_empty() {
            let ends = "both --listen and --connect must be set";
            return bad(format!("chaos proxy requires networked mode: {}", ends));
        }
        let total = out.drop + out.delay + out.truncate + out.corrupt;
        if total > 1.0 {
            let sum = "--drop + --delay + --truncate + --corrupt";
            return bad(format!("{} must not exceed 1, got {}", sum, total));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    // ---- ServeArgs --------------------------------------------------

    #[test]
    fn serve_defaults_and_forwarding() {
        let a = ServeArgs::parse(&sv(&[
            "--method",
            "fedclust",
            "--listen",
            "127.0.0.1:0",
            "--clients",
            "6",
            "--rounds",
            "3",
        ]))
        .unwrap();
        assert_eq!(a.listen, "127.0.0.1:0");
        assert_eq!(a.min_workers, 1);
        assert_eq!(a.run.clients, 6);
        assert_eq!(a.run.rounds, 3);
        assert_eq!(
            a.run.command,
            Command::Run {
                method: "fedclust".into()
            }
        );
        // Net-only flags must NOT leak into the forwarded argv.
        assert_eq!(
            a.run_argv,
            sv(&[
                "run",
                "--method",
                "fedclust",
                "--clients",
                "6",
                "--rounds",
                "3"
            ])
        );
    }

    #[test]
    fn serve_rejects_undistributable_methods() {
        for m in ["scaffold", "fedbn", "ifca", "local"] {
            if find_method(m).is_none() {
                continue;
            }
            let err = ServeArgs::parse(&sv(&["--method", m])).unwrap_err();
            assert!(err.0.contains("cannot be distributed"), "{}: {}", m, err.0);
        }
        // The list is derived from the methods themselves; the message is
        // part of the CLI's surface.
        let err = ServeArgs::parse(&sv(&["--method", "scaffold"])).unwrap_err();
        assert_eq!(
            err.0,
            "method 'scaffold' cannot be distributed (client-side state); \
             networked methods: fedavg, fedprox, fednova, cfl, pacfl, fedclust"
        );
        let err = ServeArgs::parse(&sv(&["--method", "nosuchmethod"])).unwrap_err();
        assert!(err.0.contains("unknown method"), "{}", err.0);
    }

    // ---- WorkerArgs -------------------------------------------------

    #[test]
    fn worker_requires_connect() {
        let err = WorkerArgs::parse(&sv(&[])).unwrap_err();
        assert!(err.0.contains("--connect"), "{}", err.0);
        let a = WorkerArgs::parse(&sv(&["--connect", "127.0.0.1:7878"])).unwrap();
        assert_eq!(a.connect, "127.0.0.1:7878");
        assert_eq!(a.reconnects, 1000);
    }

    #[test]
    fn worker_die_hooks_are_exclusive() {
        let err = WorkerArgs::parse(&sv(&[
            "--connect",
            "a:1",
            "--die-after",
            "1",
            "--die-mid-push",
            "2",
        ]))
        .unwrap_err();
        assert!(err.0.contains("mutually exclusive"), "{}", err.0);
        assert!(WorkerArgs::parse(&sv(&["--connect", "a:1", "--die-after", "1"])).is_ok());
    }

    // ---- ChaosArgs --------------------------------------------------

    #[test]
    fn chaos_requires_both_ends() {
        // Chaos flags without networked mode (both endpoints) are rejected.
        for argv in [
            sv(&["--drop", "0.1"]),
            sv(&["--listen", "a:1", "--drop", "0.1"]),
            sv(&["--connect", "b:2", "--corrupt", "0.1"]),
        ] {
            let err = ChaosArgs::parse(&argv).unwrap_err();
            assert!(err.0.contains("networked mode"), "{}", err.0);
        }
        let a = ChaosArgs::parse(&sv(&["--listen", "a:1", "--connect", "b:2"])).unwrap();
        assert_eq!(a.delay_ms, 50);
    }

    #[test]
    fn chaos_rejects_probability_sum_over_one() {
        let err = ChaosArgs::parse(&sv(&[
            "--listen",
            "a:1",
            "--connect",
            "b:2",
            "--drop",
            "0.5",
            "--corrupt",
            "0.6",
        ]))
        .unwrap_err();
        assert!(err.0.contains("exceed 1"), "{}", err.0);
    }

    // ---- every net flag, once ----------------------------------------

    /// `{:?}` of a parse: every field by name, so a flag that lands in a
    /// neighbour's field (or a new field) shows up in the comparison.
    fn parsed<A: std::fmt::Debug>(
        parse: fn(&[String]) -> Result<A, ParseError>,
        line: &str,
    ) -> String {
        let parts: Vec<&str> = line.split_whitespace().collect();
        format!("{:?}", parse(&sv(&parts)).unwrap())
    }

    #[test]
    fn net_flags_land_in_their_own_fields_over_pinned_defaults() {
        let serve = |line| parsed(ServeArgs::parse, line);
        let defaults = "ServeArgs { listen: \"127.0.0.1:7878\", min_workers: 1, \
            round_timeout: 120.0, run: Args {";
        assert!(serve("--method fedavg").starts_with(defaults));
        let all = "ServeArgs { listen: \"h:1\", min_workers: 2, round_timeout: 3.0, run: Args {";
        let line = "--listen h:1 --min-workers 2 --method fedavg --round-timeout 3";
        assert!(serve(line).starts_with(all));
        assert!(serve(line).ends_with("run_argv: [\"run\", \"--method\", \"fedavg\"] }"));
        // The backoff is the worker's to sleep; the server has no such flag.
        let stray = ServeArgs::parse(&sv(&["--method", "fedavg", "--backoff-base", "4"]));
        assert!(stray
            .unwrap_err()
            .0
            .starts_with("unknown option '--backoff-base'"));

        let worker = |line| parsed(WorkerArgs::parse, line);
        let defaults = "WorkerArgs { connect: \"a:1\", reconnects: 1000, backoff_base: 0.05, \
            io_timeout: 5.0, threads: None, die_after: None, die_mid_push: None }";
        assert_eq!(worker("--connect a:1"), defaults);
        let all = "WorkerArgs { connect: \"b:7\", reconnects: 2, backoff_base: 3.0, \
            io_timeout: 4.0, threads: Some(5), die_after: None, die_mid_push: Some(6) }";
        let line = "--connect a:1 --reconnects 2 --backoff-base 3 --io-timeout 4 --threads 5 \
            --die-mid-push 6 --connect b:7";
        assert_eq!(worker(line), all);
        assert!(worker("--connect a:1 --die-after 8")
            .contains("die_after: Some(8), die_mid_push: None"));

        let chaos = |line| parsed(ChaosArgs::parse, line);
        let defaults = "ChaosArgs { listen: \"a:1\", connect: \"b:2\", chaos_seed: 0, drop: 0.0, \
            delay: 0.0, truncate: 0.0, corrupt: 0.0, delay_ms: 50 }";
        assert_eq!(chaos("--listen a:1 --connect b:2"), defaults);
        let all = "ChaosArgs { listen: \"a:1\", connect: \"b:2\", chaos_seed: 3, drop: 0.5, \
            delay: 0.25, truncate: 0.125, corrupt: 0.0625, delay_ms: 4 }";
        let line = "--listen a:1 --connect b:2 --chaos-seed 3 --drop 0.5 --delay 0.25 \
            --truncate 0.125 --corrupt 0.0625 --delay-ms 4";
        assert_eq!(chaos(line), all);
    }
}
