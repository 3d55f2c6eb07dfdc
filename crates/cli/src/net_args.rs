//! Argument parsing for the networked binaries (`fedclustd`,
//! `fedclust-worker`, `fedclust-chaos`).
//!
//! `fedclustd` is a thin networked wrapper around the ordinary `run`
//! subcommand: every flag it does not recognise is forwarded verbatim to
//! [`Args::parse`] with `run` prepended, and that *exact* argv is what the
//! server ships to workers in its `Welcome` so both sides rebuild the same
//! dataset and config. Validation follows the same discipline as
//! `args.rs`: every rejection names the flag and echoes the offending
//! value, NaN is never accepted where a number is expected, and
//! cross-flag rules are checked after parsing.

use crate::args::{check_prob, parse_num, Args, Command, ParseError};
use crate::{all_methods, find_method};

fn check_addr(addr: &str, flag: &str) -> Result<(), ParseError> {
    if addr.is_empty() || !addr.contains(':') {
        return Err(ParseError(format!(
            "{} must be HOST:PORT, got '{}'",
            flag, addr
        )));
    }
    Ok(())
}

fn check_seconds(v: f64, flag: &str, allow_zero: bool) -> Result<(), ParseError> {
    if v.is_nan() {
        return Err(ParseError(format!("{} must not be NaN", flag)));
    }
    // fedlint::allow(float-eq): exact-zero sentinel — zero seconds means "disabled", anything else must be strictly positive
    if !v.is_finite() || v < 0.0 || (!allow_zero && v == 0.0) || v > 3600.0 {
        return Err(ParseError(format!(
            "{} must be {} 3600 seconds, got {}",
            flag,
            if allow_zero { "0 <=" } else { "> 0 and <=" },
            v
        )));
    }
    Ok(())
}

/// Arguments for the `fedclustd` federation server.
#[derive(Debug, Clone)]
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
    /// `--backoff-base SECS`: base of the shared exponential backoff.
    pub backoff_base: f64,
    /// `--max-inflight N`: bound on buffered, not-yet-absorbed uploads;
    /// pushes beyond it get a typed `Busy` reply.
    pub max_inflight: usize,
    /// The forwarded `run` invocation (validated).
    pub run: Args,
    /// The canonical argv (starting with `run`) shipped in `Welcome`.
    pub run_argv: Vec<String>,
}

impl ServeArgs {
    pub fn parse(argv: &[String]) -> Result<ServeArgs, ParseError> {
        let mut listen = "127.0.0.1:7878".to_string();
        let mut min_workers = 1usize;
        let mut round_timeout = 120.0f64;
        let mut backoff_base = 0.05f64;
        let mut max_inflight = 64usize;
        let mut forwarded: Vec<String> = vec!["run".to_string()];

        let mut i = 0;
        while i < argv.len() {
            let arg = argv[i].as_str();
            let mut value = |name: &str| -> Result<String, ParseError> {
                i += 1;
                argv.get(i)
                    .cloned()
                    .ok_or_else(|| ParseError(format!("{} requires a value", name)))
            };
            match arg {
                "--listen" => listen = value("--listen")?,
                "--min-workers" => {
                    min_workers = parse_num(&value("--min-workers")?, "--min-workers")?
                }
                "--round-timeout" => {
                    round_timeout = parse_num(&value("--round-timeout")?, "--round-timeout")?
                }
                "--backoff-base" => {
                    backoff_base = parse_num(&value("--backoff-base")?, "--backoff-base")?
                }
                "--max-inflight" => {
                    max_inflight = parse_num(&value("--max-inflight")?, "--max-inflight")?
                }
                _ => forwarded.push(argv[i].clone()),
            }
            i += 1;
        }

        let run = Args::parse(&forwarded)?;
        let out = ServeArgs {
            listen,
            min_workers,
            round_timeout,
            backoff_base,
            max_inflight,
            run,
            run_argv: forwarded,
        };
        out.validate()?;
        Ok(out)
    }

    fn validate(&self) -> Result<(), ParseError> {
        check_addr(&self.listen, "--listen")?;
        if self.min_workers == 0 || self.min_workers > 1024 {
            return Err(ParseError(format!(
                "--min-workers must be in [1, 1024], got {}",
                self.min_workers
            )));
        }
        check_seconds(self.round_timeout, "--round-timeout", true)?;
        check_seconds(self.backoff_base, "--backoff-base", false)?;
        if self.max_inflight == 0 || self.max_inflight > 1 << 16 {
            return Err(ParseError(format!(
                "--max-inflight must be in [1, 65536], got {}",
                self.max_inflight
            )));
        }
        match &self.run.command {
            Command::Run { method } => {
                let Some(m) = find_method(method) else {
                    return Err(ParseError(format!("unknown method '{}'", method)));
                };
                // A method that trains clients itself (to keep per-client
                // state, e.g. SCAFFOLD's control variates) would silently
                // train on the server, so it is rejected up front.
                if !m.distributes() {
                    let networked: Vec<String> = all_methods()
                        .iter()
                        .filter(|m| m.distributes())
                        .map(|m| m.name().to_lowercase())
                        .collect();
                    return Err(ParseError(format!(
                        "method '{}' cannot be distributed (client-side state); \
                         networked methods: {}",
                        method,
                        networked.join(", ")
                    )));
                }
            }
            _ => {
                return Err(ParseError(
                    "fedclustd only serves the run subcommand; pass run flags directly".to_string(),
                ))
            }
        }
        Ok(())
    }
}

/// Arguments for the `fedclust-worker` client process.
#[derive(Debug, Clone, PartialEq)]
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
    /// redialled after this long.
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

impl WorkerArgs {
    pub fn parse(argv: &[String]) -> Result<WorkerArgs, ParseError> {
        let mut out = WorkerArgs {
            connect: String::new(),
            reconnects: 1000,
            backoff_base: 0.05,
            io_timeout: 5.0,
            threads: None,
            die_after: None,
            die_mid_push: None,
        };
        let mut i = 0;
        while i < argv.len() {
            let arg = argv[i].as_str();
            let mut value = |name: &str| -> Result<String, ParseError> {
                i += 1;
                argv.get(i)
                    .cloned()
                    .ok_or_else(|| ParseError(format!("{} requires a value", name)))
            };
            match arg {
                "--connect" => out.connect = value("--connect")?,
                "--reconnects" => {
                    out.reconnects = parse_num(&value("--reconnects")?, "--reconnects")?
                }
                "--backoff-base" => {
                    out.backoff_base = parse_num(&value("--backoff-base")?, "--backoff-base")?
                }
                "--io-timeout" => {
                    out.io_timeout = parse_num(&value("--io-timeout")?, "--io-timeout")?
                }
                "--threads" => out.threads = Some(parse_num(&value("--threads")?, "--threads")?),
                "--die-after" => {
                    out.die_after = Some(parse_num(&value("--die-after")?, "--die-after")?)
                }
                "--die-mid-push" => {
                    out.die_mid_push = Some(parse_num(&value("--die-mid-push")?, "--die-mid-push")?)
                }
                other => return Err(ParseError(format!("unknown flag '{}'", other))),
            }
            i += 1;
        }
        out.validate()?;
        Ok(out)
    }

    fn validate(&self) -> Result<(), ParseError> {
        if self.connect.is_empty() {
            return Err(ParseError("--connect HOST:PORT is required".to_string()));
        }
        check_addr(&self.connect, "--connect")?;
        check_seconds(self.backoff_base, "--backoff-base", false)?;
        check_seconds(self.io_timeout, "--io-timeout", false)?;
        if let Some(t) = self.threads {
            if t == 0 || t > 1024 {
                return Err(ParseError(format!(
                    "--threads must be in [1, 1024], got {}",
                    t
                )));
            }
        }
        if self.die_after.is_some() && self.die_mid_push.is_some() {
            return Err(ParseError(
                "--die-after and --die-mid-push are mutually exclusive".to_string(),
            ));
        }
        Ok(())
    }
}

/// Arguments for the `fedclust-chaos` frame-mangling proxy.
#[derive(Debug, Clone, PartialEq)]
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

impl ChaosArgs {
    pub fn parse(argv: &[String]) -> Result<ChaosArgs, ParseError> {
        let mut out = ChaosArgs {
            listen: String::new(),
            connect: String::new(),
            chaos_seed: 0,
            drop: 0.0,
            delay: 0.0,
            truncate: 0.0,
            corrupt: 0.0,
            delay_ms: 50,
        };
        let mut i = 0;
        while i < argv.len() {
            let arg = argv[i].as_str();
            let mut value = |name: &str| -> Result<String, ParseError> {
                i += 1;
                argv.get(i)
                    .cloned()
                    .ok_or_else(|| ParseError(format!("{} requires a value", name)))
            };
            match arg {
                "--listen" => out.listen = value("--listen")?,
                "--connect" => out.connect = value("--connect")?,
                "--chaos-seed" => {
                    out.chaos_seed = parse_num(&value("--chaos-seed")?, "--chaos-seed")?
                }
                "--drop" => out.drop = parse_num(&value("--drop")?, "--drop")?,
                "--delay" => out.delay = parse_num(&value("--delay")?, "--delay")?,
                "--truncate" => out.truncate = parse_num(&value("--truncate")?, "--truncate")?,
                "--corrupt" => out.corrupt = parse_num(&value("--corrupt")?, "--corrupt")?,
                "--delay-ms" => out.delay_ms = parse_num(&value("--delay-ms")?, "--delay-ms")?,
                other => return Err(ParseError(format!("unknown flag '{}'", other))),
            }
            i += 1;
        }
        out.validate()?;
        Ok(out)
    }

    fn validate(&self) -> Result<(), ParseError> {
        // Cross-flag rule: chaos flags only make sense in networked mode,
        // i.e. with both ends of the proxy configured.
        if self.listen.is_empty() || self.connect.is_empty() {
            return Err(ParseError(
                "chaos proxy requires networked mode: both --listen and --connect must be set"
                    .to_string(),
            ));
        }
        check_addr(&self.listen, "--listen")?;
        check_addr(&self.connect, "--connect")?;
        for (v, flag) in [
            (self.drop, "--drop"),
            (self.delay, "--delay"),
            (self.truncate, "--truncate"),
            (self.corrupt, "--corrupt"),
        ] {
            check_prob(flag, v)?;
        }
        let total = self.drop + self.delay + self.truncate + self.corrupt;
        if total > 1.0 {
            return Err(ParseError(format!(
                "--drop + --delay + --truncate + --corrupt must not exceed 1, got {}",
                total
            )));
        }
        if self.delay_ms > 60_000 {
            return Err(ParseError(format!(
                "--delay-ms must be <= 60000, got {}",
                self.delay_ms
            )));
        }
        Ok(())
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
        assert_eq!(a.max_inflight, 64);
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
    fn serve_rejects_bad_listen() {
        for bad in ["", "localhost"] {
            let err = ServeArgs::parse(&sv(&["--method", "fedavg", "--listen", bad])).unwrap_err();
            assert!(err.0.contains("--listen"), "{}", err.0);
        }
    }

    #[test]
    fn serve_rejects_nan_and_out_of_range_timeouts() {
        let err =
            ServeArgs::parse(&sv(&["--method", "fedavg", "--round-timeout", "NaN"])).unwrap_err();
        assert!(
            err.0.contains("--round-timeout") && err.0.contains("NaN"),
            "{}",
            err.0
        );
        let err =
            ServeArgs::parse(&sv(&["--method", "fedavg", "--round-timeout", "-1"])).unwrap_err();
        assert!(err.0.contains("--round-timeout"), "{}", err.0);
        // Zero disables the deadline and is legal.
        assert!(ServeArgs::parse(&sv(&["--method", "fedavg", "--round-timeout", "0"])).is_ok());
        // Zero backoff would spin; rejected.
        let err =
            ServeArgs::parse(&sv(&["--method", "fedavg", "--backoff-base", "0"])).unwrap_err();
        assert!(
            err.0.contains("--backoff-base") && err.0.contains("0"),
            "{}",
            err.0
        );
        let err =
            ServeArgs::parse(&sv(&["--method", "fedavg", "--backoff-base", "NaN"])).unwrap_err();
        assert!(err.0.contains("NaN"), "{}", err.0);
    }

    #[test]
    fn serve_rejects_zero_inflight_and_workers() {
        let err =
            ServeArgs::parse(&sv(&["--method", "fedavg", "--max-inflight", "0"])).unwrap_err();
        assert!(
            err.0.contains("--max-inflight") && err.0.contains("0"),
            "{}",
            err.0
        );
        let err = ServeArgs::parse(&sv(&["--method", "fedavg", "--min-workers", "0"])).unwrap_err();
        assert!(err.0.contains("--min-workers"), "{}", err.0);
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

    #[test]
    fn serve_forwarded_flags_still_validated() {
        // The inner run parser's validation still applies to forwarded flags.
        let err = ServeArgs::parse(&sv(&["--method", "fedavg", "--dropout", "NaN"])).unwrap_err();
        assert!(err.0.contains("--dropout"), "{}", err.0);
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
    fn worker_rejects_bad_timeouts() {
        for (flag, bad) in [
            ("--io-timeout", "0"),
            ("--io-timeout", "NaN"),
            ("--io-timeout", "1e9"),
            ("--backoff-base", "-0.5"),
        ] {
            let err = WorkerArgs::parse(&sv(&["--connect", "a:1", flag, bad])).unwrap_err();
            assert!(err.0.contains(flag), "{} {}: {}", flag, bad, err.0);
        }
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

    #[test]
    fn worker_rejects_unknown_flags() {
        let err = WorkerArgs::parse(&sv(&["--connect", "a:1", "--bogus"])).unwrap_err();
        assert!(err.0.contains("--bogus"), "{}", err.0);
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
    fn chaos_rejects_bad_probabilities() {
        for (flag, bad) in [
            ("--drop", "NaN"),
            ("--drop", "1.5"),
            ("--delay", "-0.1"),
            ("--truncate", "inf"),
            ("--corrupt", "2"),
        ] {
            let err = ChaosArgs::parse(&sv(&["--listen", "a:1", "--connect", "b:2", flag, bad]))
                .unwrap_err();
            assert!(err.0.contains(flag), "{} {}: {}", flag, bad, err.0);
        }
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

    #[test]
    fn chaos_rejects_huge_delay() {
        let err = ChaosArgs::parse(&sv(&[
            "--listen",
            "a:1",
            "--connect",
            "b:2",
            "--delay-ms",
            "120000",
        ]))
        .unwrap_err();
        assert!(err.0.contains("--delay-ms"), "{}", err.0);
    }
}
