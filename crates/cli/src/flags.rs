//! The flag table: what a command-line flag is, said once.
//!
//! Each binary declares its flags as a `const` slice of [`Flag`] rows; a row
//! is everything the program knows about one flag. The three functions at
//! the bottom are the only code that walks a table: [`apply_defaults`],
//! [`parse`] (the one argv loop) and [`render`] (the option list of
//! `--help`). A rule that relates two flags is not a row: it is plain code
//! that the struct's `parse` runs after the loop.

use crate::args::{bad, ParseError};

/// One flag of one binary, whose parsed arguments are an `A`.
pub(crate) struct Flag<A> {
    /// The flag as typed, e.g. `--clients`.
    pub name: &'static str,
    /// Placeholder for its value in `--help`; empty for a switch.
    pub value: &'static str,
    /// The default as a user would type it; empty when there is none.
    pub default: &'static str,
    /// Help text; lines after the first are indented under it.
    pub help: &'static str,
    /// Heading `--help` prints above this row; empty continues the section.
    pub section: &'static str,
    /// Parse, range-check and store one value.
    pub set: fn(&mut A, Given) -> Result<(), ParseError>,
}

/// A row in the current section.
pub(crate) const fn flag<A>(
    name: &'static str,
    value: &'static str,
    default: &'static str,
    help: &'static str,
    set: fn(&mut A, Given) -> Result<(), ParseError>,
) -> Flag<A> {
    Flag {
        name,
        value,
        default,
        help,
        section: "",
        set,
    }
}

/// The same row, opening a `--help` section.
pub(crate) const fn under<A>(section: &'static str, row: Flag<A>) -> Flag<A> {
    Flag { section, ..row }
}

/// What a setter is handed: the flag as its row spells it and the token
/// after it (empty for a switch). Every rejection names the flag and echoes
/// the offending value, so the fix is obvious from the error alone.
#[derive(Clone, Copy)]
pub(crate) struct Given<'a> {
    pub flag: &'a str,
    pub value: &'a str,
}

impl Given<'_> {
    fn reject<T>(self, what: std::fmt::Arguments) -> Result<T, ParseError> {
        bad(format!("{} {}", self.flag, what))
    }

    /// Anything `T` parses from.
    pub fn num<T: std::str::FromStr>(self) -> Result<T, ParseError> {
        self.value
            .parse()
            .map_err(|_| ParseError(format!("invalid value '{}' for {}", self.value, self.flag)))
    }

    /// An integer in `[min, max]`; `usize::MAX` means unbounded above.
    pub fn count(self, min: usize, max: usize) -> Result<usize, ParseError> {
        let n: usize = self.num()?;
        if (min..=max).contains(&n) {
            return Ok(n);
        }
        match (min, max) {
            (_, usize::MAX) => self.reject(format_args!("must be at least {}, got {}", min, n)),
            (0, _) => self.reject(format_args!("must be <= {}, got {}", max, n)),
            _ => self.reject(format_args!("must be in [{}, {}], got {}", min, max, n)),
        }
    }

    /// A float `ok` accepts. NaN fails every range test too, but is called
    /// out explicitly so the message never reads "NaN must be in [0, 1]".
    fn float(self, ok: fn(f32) -> bool, kind: &str, range: &str) -> Result<f32, ParseError> {
        let v: f32 = self.num()?;
        if v.is_nan() {
            return self.reject(format_args!("is NaN; it must be {}", kind));
        }
        if !ok(v) {
            return self.reject(format_args!("must be {}, got {}", range, v));
        }
        Ok(v)
    }

    /// A probability in `[0, 1]`.
    pub fn prob(self) -> Result<f32, ParseError> {
        let ok = |v| (0.0..=1.0).contains(&v);
        self.float(ok, "a probability in [0, 1]", "in [0, 1]")
    }

    /// A rate in `(0, 1]`.
    pub fn rate(self) -> Result<f32, ParseError> {
        self.float(|v| 0.0 < v && v <= 1.0, "in (0, 1]", "in (0, 1]")
    }

    /// A timing scale. `< 0.0` is false for NaN, so NaN has to be checked
    /// explicitly (`float` does) — otherwise a NaN delay/deadline would
    /// slip through to the fault injector.
    pub fn non_negative(self) -> Result<f32, ParseError> {
        self.float(|v| v >= 0.0, "a non-negative number", "non-negative")
    }

    /// Seconds, at most an hour: more than `above`, or from zero where
    /// there is no such floor and zero means "disabled".
    pub fn seconds(self, above: Option<f64>) -> Result<f64, ParseError> {
        let v: f64 = self.num()?;
        if v.is_nan() {
            return self.reject(format_args!("must not be NaN"));
        }
        if !v.is_finite() || v < 0.0 || above.is_some_and(|floor| v <= floor) || v > 3600.0 {
            let low = above.map_or("0 <=".to_string(), |floor| format!("> {} and <=", floor));
            return self.reject(format_args!("must be {} 3600 seconds, got {}", low, v));
        }
        Ok(v)
    }

    /// `HOST:PORT`.
    pub fn addr(self) -> Result<String, ParseError> {
        if self.value.is_empty() || !self.value.contains(':') {
            return self.reject(format_args!("must be HOST:PORT, got '{}'", self.value));
        }
        Ok(self.text())
    }

    /// One of a closed set of spellings; `known` is the row's own check.
    pub fn one_of(self, known: bool, spellings: &str) -> Result<String, ParseError> {
        if !known {
            return self.reject(format_args!("must be {}, got '{}'", spellings, self.value));
        }
        Ok(self.text())
    }

    /// Free text.
    pub fn text(self) -> String {
        self.value.to_string()
    }
}

/// Feed every row's default through its own setter.
pub(crate) fn apply_defaults<A>(table: &[Flag<A>], out: &mut A) -> Result<(), ParseError> {
    for row in table.iter().filter(|row| !row.default.is_empty()) {
        let (flag, value) = (row.name, row.default);
        (row.set)(out, Given { flag, value })?;
    }
    Ok(())
}

/// Whether `arg` asks for the usage text.
pub(crate) fn is_help(arg: &str) -> bool {
    arg == "--help" || arg == "-h"
}

/// The argv loop. A token that names a row goes through its setter, with
/// the next token as the value unless the row is a switch; a repeated flag
/// overwrites. Any other token is pushed onto `forward` where there is one
/// (`fedclustd`) and is an unknown option otherwise. `--help`/`-h` return
/// `usage` as the error text.
pub(crate) fn parse<A>(
    table: &[Flag<A>],
    out: &mut A,
    argv: &[String],
    usage: &str,
    mut forward: Option<&mut Vec<String>>,
) -> Result<(), ParseError> {
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        if is_help(arg) {
            return bad(usage);
        }
        let Some(row) = table.iter().find(|row| row.name == arg) else {
            match forward.as_deref_mut() {
                Some(forwarded) => forwarded.push(arg.clone()),
                None => return bad(format!("unknown option '{}'\n{}", arg, usage)),
            }
            continue;
        };
        let value = match row.value {
            "" => "",
            _ => it
                .next()
                .ok_or_else(|| ParseError(format!("{} requires a value", row.name)))?,
        };
        let flag = row.name;
        (row.set)(out, Given { flag, value })?;
    }
    Ok(())
}

/// The option list of `--help`: per row the flag, its placeholder, its
/// help and its default, under the section headings the rows carry.
pub(crate) fn render<A>(table: &[Flag<A>]) -> String {
    let mut out = String::new();
    for row in table {
        if !row.section.is_empty() {
            out.push_str(&format!("\n{}:\n", row.section));
        }
        let left = format!("{} {}", row.name, row.value);
        let mut help = row.help.lines();
        out.push_str(&format!("  {:<26}{}", left, help.next().unwrap_or("")));
        if !row.default.is_empty() {
            out.push_str(&format!(" (default {})", row.default));
        }
        out.push('\n');
        for line in help {
            out.push_str(&format!("  {:<26}{}\n", "", line));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::{Args, RUN};
    use crate::net_args::{ChaosArgs, ServeArgs, WorkerArgs, CHAOS, SERVE, WORKER};

    fn sv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    /// One binary as these tests see it: its rows as `[name, placeholder,
    /// default]`, a valid argv to append one flag to, and its parser.
    type Bin = (
        Vec<[&'static str; 3]>,
        &'static [&'static str],
        fn(&[String]) -> Result<(), ParseError>,
    );

    fn rows<A>(table: &[Flag<A>]) -> Vec<[&'static str; 3]> {
        let row = |r: &Flag<A>| [r.name, r.value, r.default];
        table.iter().map(row).collect()
    }

    fn bins() -> [Bin; 4] {
        const RUN_BASE: &[&str] = &["run", "--method", "fedavg", "--checkpoint-dir", "d"];
        // `fedclustd` parses its own rows and every `run` row it forwards —
        // bar `--points`, which is `sweep`'s and has nowhere to go in `run`.
        let forwarded = rows(RUN).into_iter().filter(|r| r[0] != "--points");
        let served = rows(SERVE).into_iter().chain(forwarded).collect();
        [
            (rows(RUN), RUN_BASE, |argv| Args::parse(argv).map(drop)),
            (served, &RUN_BASE[1..], |argv| {
                ServeArgs::parse(argv).map(drop)
            }),
            (rows(WORKER), &["--connect", "a:1"], |argv| {
                WorkerArgs::parse(argv).map(drop)
            }),
            (
                rows(CHAOS),
                &["--listen", "a:1", "--connect", "b:2"],
                |argv| ChaosArgs::parse(argv).map(drop),
            ),
        ]
    }

    /// What each flag promises, pinned once: the flags of a kind, values
    /// they accept (both ends of the range), and values they reject with
    /// what the message says after the flag — `?` for the shape
    /// `invalid value '<v>' for <flag>`.
    type Contract<'a> = (&'a [&'a str], &'a [&'a str], &'a [(&'a str, &'a str)]);

    #[rustfmt::skip]
    const CONTRACTS: &[Contract] = &[
        (&["--clients", "--rounds", "--epochs", "--samples-per-class", "--keep", "--checkpoint-every"], &["1", "4294967296"],
            &[("0", "must be at least 1, got 0"), ("zero", "?"), ("NaN", "?"), ("-1", "?")]),
        (&["--points"], &["2", "4294967296"], &[("1", "must be at least 2, got 1"), ("two", "?")]),
        (&["--retries"], &["0", "16"], &[("17", "must be <= 16, got 17"), ("1000", "must be <= 16, got 1000"), ("4294967296", "must be <= 16, got 4294967296"), ("-1", "?")]),
        (&["--delay-ms"], &["0", "60000"], &[("60001", "must be <= 60000, got 60001"), ("120000", "must be <= 60000, got 120000"), ("NaN", "?")]),
        (&["--min-workers"], &["1", "1024"], &[("0", "must be in [1, 1024], got 0"), ("1025", "must be in [1, 1024], got 1025"), ("NaN", "?")]),
        (&["--seed", "--chaos-seed", "--crash-after", "--reconnects", "--die-after", "--die-mid-push"], &["0", "4294967296"],
            &[("zero", "?"), ("NaN", "?"), ("-1", "?")]),
        (&["--threads"], &["1", "256"],
            &[("0", "must be at least 1, got 0 (use 1 for the exact-sequential path)"), ("257", "must be at most 256, got 257"),
              ("1000", "must be at most 256, got 1000"), ("many", "?"), ("-2", "?")]),
        (&["--dropout", "--uplink-loss", "--downlink-loss", "--corrupt-rate", "--straggler-rate", "--drop", "--delay", "--truncate", "--corrupt"], &["0", "1"],
            &[("-0.1", "must be in [0, 1], got -0.1"), ("1.5", "must be in [0, 1], got 1.5"), ("inf", "must be in [0, 1], got inf"),
              ("NaN", "is NaN; it must be a probability in [0, 1]"), ("zero", "?")]),
        (&["--sample-rate"], &["0.001", "1"],
            &[("0", "must be in (0, 1], got 0"), ("1.5", "must be in (0, 1], got 1.5"), ("NaN", "is NaN; it must be in (0, 1]")]),
        (&["--straggler-delay", "--deadline"], &["0", "inf"],
            &[("-3", "must be non-negative, got -3"), ("NaN", "is NaN; it must be a non-negative number"), ("soon", "?")]),
        (&["--round-timeout"], &["0", "3600"],
            &[("-1", "must be 0 <= 3600 seconds, got -1"), ("3601", "must be 0 <= 3600 seconds, got 3601"),
              ("inf", "must be 0 <= 3600 seconds, got inf"), ("NaN", "must not be NaN")]),
        // The worker's alone: nothing in `fedclustd` sleeps on a backoff.
        (&["--backoff-base"], &["0.001", "3600"],
            &[("0", "must be > 0 and <= 3600 seconds, got 0"), ("-0.5", "must be > 0 and <= 3600 seconds, got -0.5"),
              ("1e9", "must be > 0 and <= 3600 seconds, got 1000000000"), ("NaN", "must not be NaN"), ("zero", "?")]),
        // Above the server's keep-alive period (`net::KEEP_ALIVE`), or an idle park reads as a dead server.
        (&["--io-timeout"], &["0.201", "3600"],
            &[("0.2", "must be > 0.2 and <= 3600 seconds, got 0.2"), ("0.1", "must be > 0.2 and <= 3600 seconds, got 0.1"),
              ("0", "must be > 0.2 and <= 3600 seconds, got 0"), ("3601", "must be > 0.2 and <= 3600 seconds, got 3601"),
              ("NaN", "must not be NaN"), ("zero", "?")]),
        (&["--listen", "--connect"], &["a:1"], &[("", "must be HOST:PORT, got ''"), ("localhost", "must be HOST:PORT, got 'localhost'")]),
        (&["--dataset"], &["cifar10", "SVHN"], &[("bogus", "must be cifar10 | cifar100 | fmnist | svhn, got 'bogus'")]),
        (&["--partition"], &["iid", "dir0.5"], &[("bogus", "must be iid | skewNN (percent) | dirX.X (alpha), got 'bogus'")]),
        // Free text and switches promise nothing about a single value
        // (`--codec`'s grammar has its own test in `args.rs`).
        (&["--method", "--codec", "--checkpoint-dir", "--json", "--resume", "--crash-mid-write"], &[], &[]),
    ];

    #[test]
    fn every_row_keeps_its_contract_through_every_binary_that_parses_it() {
        for (rows, base, parse) in bins() {
            for [flag, value, _] in rows {
                let given = |v: Option<&str>| {
                    // `--points` is `sweep`'s, so that is where it is tried.
                    let mut argv = sv(if flag == "--points" { &["sweep"] } else { base });
                    argv.push(flag.to_string());
                    argv.extend(v.map(str::to_string));
                    parse(&argv)
                };
                if !value.is_empty() {
                    let missing = format!("{flag} requires a value");
                    assert_eq!(given(None), Err(ParseError(missing)));
                }
                let (_, yes, no) = CONTRACTS
                    .iter()
                    .find(|(flags, ..)| flags.contains(&flag))
                    .unwrap_or_else(|| panic!("{flag} has no contract; every row gets one"));
                for v in *yes {
                    assert_eq!(given(Some(v)), Ok(()), "{flag} {v}");
                }
                for (v, says) in *no {
                    let message = match *says {
                        "?" => format!("invalid value '{v}' for {flag}"),
                        says => format!("{flag} {says}"),
                    };
                    assert_eq!(given(Some(v)), Err(ParseError(message)), "{flag} {v}");
                }
            }
        }
    }

    #[test]
    fn help_is_the_table() {
        for (rows, base, parse) in bins() {
            let help = parse(&sv(&["--help"])).unwrap_err().0;
            assert_eq!(parse(&sv(&["-h"])).unwrap_err().0, help);
            // An unknown option names itself and prints this binary's help.
            let stray = [base, &["--bogus"]].concat();
            let unknown = format!("unknown option '--bogus'\n{help}");
            assert_eq!(parse(&sv(&stray)), Err(ParseError(unknown)));
            // Every row is listed once, with its placeholder and default;
            // the defaults themselves parse, or `base` would not.
            assert_eq!(parse(&sv(base)), Ok(()));
            for [flag, value, default] in rows {
                let mut listed = help
                    .lines()
                    .filter(|l| l.split_whitespace().next() == Some(flag));
                let line = listed
                    .next()
                    .unwrap_or_else(|| panic!("{flag} is not in:\n{help}"));
                assert_eq!(listed.next(), None, "{flag} is listed (or declared) twice");
                assert!(line.contains(value), "{line}");
                let shown = format!("(default {default})");
                assert_eq!(line.contains(&shown), !default.is_empty(), "{line}");
            }
        }
    }
}
