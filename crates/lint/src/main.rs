//! `fedlint` CLI: scan the workspace, print a deterministic report, gate CI.
//!
//! ```text
//! fedlint [--deny] [--json] [--root <dir>] [--explain <rule>]
//! ```
//!
//! * `--deny` — exit nonzero if any finding (or malformed pragma) remains.
//! * `--json` — print the JSON report (schema 5, including per-rule
//!   `timings_ms`) to stdout and also write it to
//!   `<root>/results/lint_report.json` for trend tracking.
//! * `--root` — workspace root; defaults to walking up from the current
//!   directory until `Cargo.toml` + `crates/` are found.
//! * `--explain <rule>` — print the rule's documentation (its
//!   [`lint::rules::RULES`] row, the same table the README rule list is
//!   tested against) and exit.

use lint::rules::{PRAGMA_SYNTAX, RULES, RULE_NAMES};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Write a persisted artifact atomically: tmp sibling → write → fsync →
/// rename. A crash mid-write can never leave a torn report.
fn write_atomic(target: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut tmp = target.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let mut file = std::fs::File::create(&tmp)?;
    file.write_all(bytes)?;
    file.sync_all()?;
    drop(file);
    std::fs::rename(&tmp, target)
}

/// The `--explain` text for `rule`, or `None` for an unknown rule. Split
/// from `main` so the unit tests cover it directly.
fn explain_rule(rule: &str) -> Option<String> {
    RULES
        .iter()
        .map(|r| (r.name, r.doc))
        .chain([PRAGMA_SYNTAX])
        .find(|(name, _)| *name == rule)
        .map(|(name, doc)| format!("{name}\n\n{doc}\n"))
}

fn main() -> ExitCode {
    let mut deny = false;
    let mut json = false;
    let mut root: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--deny" => deny = true,
            "--json" => json = true,
            "--root" => match args.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("fedlint: --root needs a directory argument");
                    return ExitCode::from(2);
                }
            },
            "--explain" => match args.next() {
                Some(rule) => match explain_rule(&rule) {
                    Some(text) => {
                        print!("{text}");
                        return ExitCode::SUCCESS;
                    }
                    None => {
                        eprintln!(
                            "fedlint: unknown rule `{rule}`; known rules: {}, {}",
                            RULE_NAMES.join(", "),
                            PRAGMA_SYNTAX.0
                        );
                        return ExitCode::from(2);
                    }
                },
                None => {
                    eprintln!("fedlint: --explain needs a rule argument");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!("usage: fedlint [--deny] [--json] [--root <dir>] [--explain <rule>]");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("fedlint: unknown argument `{other}`");
                return ExitCode::from(2);
            }
        }
    }

    let root = match root.or_else(|| {
        std::env::current_dir()
            .ok()
            .and_then(|cwd| lint::find_workspace_root(&cwd))
    }) {
        Some(r) => r,
        None => {
            eprintln!("fedlint: could not locate a workspace root (try --root)");
            return ExitCode::from(2);
        }
    };

    let (report, timings) = match lint::scan_workspace(&root) {
        Ok(scanned) => scanned,
        Err(e) => {
            eprintln!("fedlint: {e}");
            return ExitCode::from(2);
        }
    };

    if json {
        let rendered = lint::render_json(&report, Some(&timings));
        print!("{rendered}");
        let results_dir = root.join("results");
        let target = results_dir.join("lint_report.json");
        if let Err(e) = std::fs::create_dir_all(&results_dir)
            .and_then(|()| write_atomic(&target, rendered.as_bytes()))
        {
            eprintln!("fedlint: could not write {}: {e}", target.display());
            return ExitCode::from(2);
        }
    } else {
        print!("{}", lint::render_human(&report));
    }

    if deny && !report.findings.is_empty() {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::explain_rule;

    #[test]
    fn explain_knows_every_rule_and_rejects_unknown_ones() {
        for rule in lint::rules::RULE_NAMES {
            let text = explain_rule(rule).expect(rule);
            assert!(text.starts_with(rule), "{text}");
            assert!(text.len() > rule.len() + 40, "doc for {rule} too short");
        }
        assert!(explain_rule("pragma-syntax").is_some());
        assert!(explain_rule("no-such-rule").is_none());
    }
}
