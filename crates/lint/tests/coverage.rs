//! Rule-coverage meta-test: every row of `RULES` (plus the built-in
//! `pragma-syntax`) must have at least one positive fixture finding and at
//! least one negative fixture that declares it clean-covers the rule via a
//! `// fedlint-fixture: covers <rule>[, <rule>]` marker. New rules cannot
//! ship untested: adding a row to `RULES` without fixtures fails here.
//! (That the negative tree the markers sit in *is* clean, and the exact
//! lines the positive tree fires at, are pinned in `tests/rules.rs`.)

use lint::rules::{PRAGMA_SYNTAX, RULES};
use lint::scan_workspace;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

const MARKER: &str = "// fedlint-fixture: covers ";

fn fixture_root(which: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(which)
}

/// All rule names the suite must cover.
fn all_rules() -> Vec<&'static str> {
    let rows = RULES.iter().map(|r| r.name);
    rows.chain([PRAGMA_SYNTAX.0]).collect()
}

/// Collect `covers` markers from every `.rs` file under `dir`, as
/// rule -> files claiming negative coverage.
fn collect_markers(dir: &Path, out: &mut BTreeMap<String, Vec<String>>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            collect_markers(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            let text = std::fs::read_to_string(&path).expect("fixture readable");
            for line in text.lines() {
                let Some(rules) = line.trim().strip_prefix(MARKER) else {
                    continue;
                };
                for rule in rules.split(',').map(str::trim).filter(|r| !r.is_empty()) {
                    out.entry(rule.to_string())
                        .or_default()
                        .push(path.display().to_string());
                }
            }
        }
    }
}

#[test]
fn every_rule_has_a_positive_fixture_finding() {
    let (report, _) = scan_workspace(&fixture_root("positive")).expect("positive fixture scans");
    let fired: BTreeSet<&str> = report.findings.iter().map(|f| f.rule).collect();
    for rule in all_rules() {
        assert!(
            fired.contains(rule),
            "rule `{rule}` has no positive fixture finding — every rule needs a fixture that \
             makes it fire"
        );
    }
}

#[test]
fn every_rule_has_a_negative_coverage_marker() {
    let mut markers: BTreeMap<String, Vec<String>> = BTreeMap::new();
    collect_markers(&fixture_root("negative"), &mut markers);
    let known = all_rules();
    for (rule, files) in &markers {
        assert!(
            known.contains(&rule.as_str()),
            "marker in {:?} names unknown rule `{rule}` — fix the typo or register the rule",
            files
        );
    }
    for rule in known {
        assert!(
            markers.contains_key(rule),
            "rule `{rule}` has no negative fixture marker — add \
             `{MARKER}{rule}` to a clean fixture exercising its safe shape"
        );
    }
}
