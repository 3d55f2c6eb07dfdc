//! `fedlint` — the workspace invariant checker.
//!
//! Bit-identical replay under fault injection is the workspace's
//! load-bearing guarantee, and most invariants behind it (disciplined RNG
//! stream construction, checked codec arithmetic, no clock or hasher state
//! in replayed values, each architectural shape in its one home) are
//! nothing a stock linter knows. This crate enforces them
//! mechanically: a from-scratch, comment/string/char-literal-aware
//! lexer ([`lexer`]) feeds a set of named rules ([`rules`]) over every
//! `crates/*/src` and `vendor/*/src` file, and the driver here renders
//! deterministic, sorted human and JSON reports. `fedlint --deny` is a CI
//! gate (`scripts/ci.sh`).
//!
//! What clippy checks stays with clippy (DESIGN.md §8): panic-free library
//! code (`unwrap_used`, `expect_used`, `panic`, `todo`, `unimplemented`,
//! `unreachable`, denied at each library crate's root), documented `unsafe`
//! (`undocumented_unsafe_blocks`, `missing_safety_doc`) and hasher-ordered
//! containers (`disallowed_types` in `clippy.toml`). Ordered parallel
//! reductions are rustc's: the vendored `ParIter` has no folding consumer,
//! and `vendor/rayon`'s doctests fail if one appears.
//!
//! Output determinism is part of the contract: files are walked in sorted
//! order, findings are sorted by `(file, line, rule, message)`, and the JSON
//! emitter is hand-rolled with sorted keys — repeated runs are byte-identical.
//!
//! Scanning is one pass: each file is lexed once, its items recovered
//! ([`items`]), and every rule of [`rules::RULES`] that reads its tree runs
//! on it ([`rules::analyze_source`]); no rule needs a second file. What the
//! workspace keeps in one place — clocks, the reads that take in hostile
//! bytes, the RNG stream table, locks, `Relaxed` atomics and the rest — is
//! a `confinement` row naming its home files, and the compiler's
//! `Send`/`Sync` checks are the whole concurrency gate. A justified finding
//! is parked where it occurs, by a `fedlint::allow` pragma with a written
//! reason; there is no other exemption mechanism.

pub mod items;
pub mod lexer;
pub mod rules;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Per-rule and per-stage wall time of one scan (the JSON report's
/// `timings_ms`). Keys are the [`rules::RULES`] names plus the
/// `infra:parse` stage; durations accumulate across files. Always
/// collected — a handful of clock reads per file — and kept apart from
/// [`Report`], whose bytes must not depend on the clock.
#[derive(Debug, Default)]
pub struct Timings {
    /// Accumulated wall time per key, sorted by key.
    pub entries: BTreeMap<&'static str, Duration>,
}

impl Timings {
    /// Run `f`, adding its wall time to `key`.
    pub(crate) fn time<T>(&mut self, key: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        *self.entries.entry(key).or_default() += start.elapsed();
        out
    }

    /// Sum of every recorded segment (the report's `total`).
    pub fn total(&self) -> Duration {
        self.entries.values().sum()
    }
}

/// One rule violation, anchored to `file:line`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Workspace-relative path, forward slashes.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule identifier (see [`rules::RULES`], plus `pragma-syntax`).
    pub rule: &'static str,
    /// Human-readable diagnostic.
    pub message: String,
}

/// The result of scanning a workspace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Report {
    /// Sorted findings.
    pub findings: Vec<Finding>,
    /// Number of `.rs` files scanned, test trees included.
    pub files_scanned: usize,
}

impl Report {
    /// Findings per rule, sorted by rule name.
    pub fn counts(&self) -> BTreeMap<&'static str, usize> {
        let mut counts = BTreeMap::new();
        for f in &self.findings {
            *counts.entry(f.rule).or_insert(0) += 1;
        }
        counts
    }
}

/// The sorted subdirectories of `parent` that have a `src/` of their own.
fn src_roots(parent: &Path) -> Result<Vec<PathBuf>, String> {
    let mut dirs: Vec<PathBuf> = std::fs::read_dir(parent)
        .map_err(|e| format!("cannot read {}: {e}", parent.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.is_dir() && p.join("src").is_dir())
        .collect();
    dirs.sort();
    Ok(dirs)
}

/// Scan every `crates/*/src/**/*.rs` — plus `vendor/*/src/**/*.rs` when a
/// `vendor/` directory exists (the vendored crates keep the workspace's
/// invariants too), and for [`rules::Pass::FileAndTests`] the test trees — under
/// `root`, the directory containing `crates/`, and return the sorted report
/// with the scan's wall-time accounting.
pub fn scan_workspace(root: &Path) -> Result<(Report, Timings), String> {
    let mut timings = Timings::default();
    let mut crate_dirs = src_roots(&root.join("crates"))?;
    let mut tests: Vec<PathBuf> = crate_dirs.iter().map(|d| d.join("tests")).collect();
    tests.push(root.join("tests"));
    tests.retain(|d| d.is_dir());
    let vendor_dir = root.join("vendor");
    if vendor_dir.is_dir() {
        crate_dirs.extend(src_roots(&vendor_dir)?);
    }
    let trees = crate_dirs.iter().map(|d| (d.join("src"), false));

    let (mut findings, mut files_scanned) = (Vec::new(), 0);
    for (dir, test_tree) in trees.chain(tests.into_iter().map(|d| (d, true))) {
        let crate_name = (dir.parent().filter(|p| *p != root))
            .and_then(Path::file_name)
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        let mut files = Vec::new();
        collect_rs_files(&dir, &mut files)?;
        files.sort();
        files_scanned += files.len();
        for file in &files {
            let rel = rel_path(root, file);
            let is_bin = rel.ends_with("/main.rs") || rel.contains("/src/bin/");
            let bytes = std::fs::read(file).map_err(|e| format!("read {rel}: {e}"))?;
            let src = String::from_utf8_lossy(&bytes);
            let ctx = rules::FileContext {
                crate_name: &crate_name,
                rel_path: &rel,
                is_bin,
                test_tree,
            };
            findings.extend(rules::analyze_source(&ctx, &src, &mut timings));
        }
    }
    findings.sort();
    findings.dedup();
    let report = Report {
        findings,
        files_scanned,
    };
    Ok((report, timings))
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    for entry in entries.filter_map(|e| e.ok()) {
        let path = entry.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn rel_path(root: &Path, file: &Path) -> String {
    file.strip_prefix(root)
        .unwrap_or(file)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Locate the workspace root by walking up from `start` until a directory
/// containing both `Cargo.toml` and `crates/` is found.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        if dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Render the human-readable report (trailing newline included).
pub fn render_human(report: &Report) -> String {
    let mut out = String::new();
    for f in &report.findings {
        let _ = writeln!(out, "{}:{}: [{}] {}", f.file, f.line, f.rule, f.message);
    }
    if report.findings.is_empty() {
        let _ = writeln!(
            out,
            "fedlint: clean ({} files scanned)",
            report.files_scanned
        );
    } else {
        let per_rule: Vec<String> = report
            .counts()
            .iter()
            .map(|(rule, n)| format!("{rule}: {n}"))
            .collect();
        let _ = writeln!(
            out,
            "fedlint: {} finding(s) in {} files scanned ({})",
            report.findings.len(),
            report.files_scanned,
            per_rule.join(", ")
        );
    }
    out
}

/// Render the JSON report (schema 5). Hand-rolled (no serde dependency)
/// with sorted keys and sorted findings, so without `timings` the output is
/// byte-identical across runs. `counts` carries every rule of
/// [`rules::RULES`] (zero-filled) plus `pragma-syntax`, so per-rule trends
/// diff cleanly across commits; `timings_ms` — whole milliseconds per rule
/// and per `infra:*` stage, with a derived `total` — appears only when
/// `timings` is handed in.
pub fn render_json(report: &Report, timings: Option<&Timings>) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"schema\": 5,");
    let _ = writeln!(out, "  \"files_scanned\": {},", report.files_scanned);
    let _ = writeln!(out, "  \"total_findings\": {},", report.findings.len());
    let mut counts: BTreeMap<&str, usize> = rules::RULE_NAMES.iter().map(|r| (*r, 0)).collect();
    counts.insert(rules::PRAGMA_SYNTAX.0, 0);
    for f in &report.findings {
        *counts.entry(f.rule).or_insert(0) += 1;
    }
    json_object(&mut out, "counts", counts);
    if let Some(t) = timings {
        let mut rows: BTreeMap<&str, u128> =
            t.entries.iter().map(|(k, d)| (*k, d.as_millis())).collect();
        rows.insert("total", t.total().as_millis());
        json_object(&mut out, "timings_ms", rows);
    }
    out.push_str("  \"findings\": [");
    for (i, f) in report.findings.iter().enumerate() {
        let sep = if i + 1 < report.findings.len() {
            ","
        } else {
            ""
        };
        let _ = write!(
            out,
            "\n    {{\"file\": {}, \"line\": {}, \"rule\": {}, \"message\": {}}}{}",
            json_str(&f.file),
            f.line,
            json_str(f.rule),
            json_str(&f.message),
            sep
        );
    }
    out.push_str(if report.findings.is_empty() {
        "]\n}\n"
    } else {
        "\n  ]\n}\n"
    });
    out
}

/// Append `"name": {"key": value, …},` — one key per line, in key order.
fn json_object<V: std::fmt::Display>(out: &mut String, name: &str, rows: BTreeMap<&str, V>) {
    let _ = write!(out, "  \"{name}\": {{");
    for (i, (key, value)) in rows.iter().enumerate() {
        let sep = if i + 1 < rows.len() { "," } else { "" };
        let _ = write!(out, "\n    {}: {value}{sep}", json_str(key));
    }
    out.push_str("\n  },\n");
}

/// Escape a string for JSON output.
pub(crate) fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escaping() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_str("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn empty_report_renders() {
        let r = Report {
            findings: Vec::new(),
            files_scanned: 3,
        };
        assert!(render_human(&r).contains("clean"));
        let j = render_json(&r, None);
        assert!(j.contains("\"total_findings\": 0"));
        assert!(j.contains("\"findings\": []"));
    }
}
