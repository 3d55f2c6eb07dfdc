//! Fixture-based rule tests: one positive and one negative case per rule,
//! exercised through the same `scan_workspace` driver the binary uses.

use lint::{scan_workspace, Report};
use std::path::PathBuf;

fn fixture_root(which: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(which)
}

fn scan(which: &str) -> Report {
    scan_workspace(&fixture_root(which))
        .expect("fixture tree scans")
        .0
}

fn lines_for(report: &Report, rule: &str, file_suffix: &str) -> Vec<u32> {
    report
        .findings
        .iter()
        .filter(|f| f.rule == rule && f.file.ends_with(file_suffix))
        .map(|f| f.line)
        .collect()
}

#[test]
fn positive_fixture_fires_every_rule() {
    let report = scan("positive");
    let v = "violations.rs";
    assert_eq!(lines_for(&report, "rng-stream-discipline", v), vec![6, 7]);
    assert_eq!(
        lines_for(&report, "float-eq", v),
        vec![11, 16],
        "a bare literal compare, and one under a reasonless pragma"
    );
    assert_eq!(
        lines_for(&report, "pragma-syntax", v),
        vec![15, 20],
        "a pragma without a reason, and one naming a rule clippy checks now"
    );
    // v2 structural rules.
    assert_eq!(
        lines_for(&report, "codec-checked-arith", "checkpoint.rs"),
        vec![13, 14, 21],
        "unchecked `+` on pos, slice index in Dec::take, bare index in decode_header"
    );
    assert_eq!(
        lines_for(&report, "codec-checked-arith", "fl/src/codec.rs"),
        vec![4, 5],
        "unchecked `+` and bare indexing in a decode fn; encode-side wire_len stays silent"
    );
    assert_eq!(
        lines_for(&report, "codec-checked-arith", "proto/src/bytes.rs"),
        vec![10, 11, 18, 19],
        "unchecked `+` and slice index in Reader::take, unchecked `-` and bare index in unseal; \
         write-side sealed_len stays silent"
    );
    assert_eq!(
        lines_for(&report, "atomic-write-discipline", "checkpoint.rs"),
        vec![25],
        "File::create without sync_all/rename in the same fn"
    );
    assert_eq!(
        lines_for(&report, "rng-stream-collision", "streams_dup.rs"),
        vec![6, 11],
        "duplicate constant value + re-consumed stream slice"
    );
    // v3 dataflow/taint rules.
    assert_eq!(
        lines_for(&report, "untrusted-input-taint", "taint_len.rs"),
        vec![11, 12, 16],
        "with_capacity, bare `*`, and bare indexing on a disk-derived length"
    );
    assert_eq!(
        lines_for(&report, "determinism-taint", "taint_time.rs"),
        vec![11, 24],
        "wall-clock into a RunResult literal and into seed derivation"
    );
    // One pinned line per `confinement` row, named by its message prefix.
    let confined: Vec<(&str, u32, &str)> = report
        .findings
        .iter()
        .filter(|f| f.rule == "confinement")
        .map(|f| {
            (
                f.file.as_str(),
                f.line,
                f.message.split(':').next().unwrap_or(""),
            )
        })
        .collect();
    assert_eq!(
        confined,
        vec![
            ("crates/cli/src/args.rs", 6, "one flag table"),
            ("crates/cli/src/args.rs", 10, "one flag table"),
            ("crates/cli/src/registry.rs", 7, "no locks"),
            ("crates/cli/src/registry.rs", 10, "no locks"),
            ("crates/cli/src/registry.rs", 11, "no locks"),
            ("crates/cli/src/registry.rs", 14, "no locks"),
            ("crates/fl/src/confined.rs", 5, "one byte layer"),
            ("crates/fl/src/confined.rs", 8, "one upload rule"),
            ("crates/fl/src/confined.rs", 13, "one door to clients"),
            ("crates/fl/src/confined.rs", 16, "no serde"),
            ("crates/fl/src/confined.rs", 20, "bench-only lowering"),
            ("crates/fl/src/confined.rs", 24, "one relaxed atomic"),
            ("crates/lint/src/main.rs", 5, "one rule table"),
            (
                "crates/tensor/src/forks.rs",
                4,
                "kernels on the calling thread"
            ),
            (
                "crates/tensor/src/forks.rs",
                7,
                "kernels on the calling thread"
            ),
            ("tests/seal.rs", 5, "one byte layer"),
        ],
        "a flag twice in one table and one outside any; the door call sits past a doc comment \
         naming `#[cfg(test)]`; the test trees are read; a kernel crate's `rayon` path and its \
         fork both count, its test module does not; a line naming two lock types is one finding"
    );
    assert_eq!(report.findings.len(), 39, "the whole positive tree");
}
#[test]
fn taint_findings_carry_the_full_chain() {
    let report = scan("positive");
    let f = report
        .findings
        .iter()
        .find(|f| f.rule == "untrusted-input-taint" && f.line == 11)
        .expect("with_capacity finding present");
    assert_eq!(f.file, "crates/fl/src/taint_len.rs");
    for hop in [
        "`fs::read()` at crates/fl/src/taint_len.rs:5",
        "`raw`",
        "arg #0 of `parse_report`",
        "`header_len()`",
        "`n`",
    ] {
        assert!(
            f.message.contains(hop),
            "chain must spell out hop {hop}: {}",
            f.message
        );
    }
    let d = report
        .findings
        .iter()
        .find(|f| f.rule == "determinism-taint" && f.line == 11)
        .expect("RunResult finding present");
    assert!(
        d.message
            .contains("`Instant::now()` at crates/fl/src/taint_time.rs:18 -> `now` -> `elapsed_ms()` -> `wall`"),
        "return-value hop must appear in the chain: {}",
        d.message
    );
}

#[test]
fn negative_fixture_is_clean() {
    let report = scan("negative");
    assert_eq!(
        report.findings,
        Vec::new(),
        "negative fixture must scan clean"
    );
    assert_eq!(report.files_scanned, 15);
}

#[test]
fn findings_and_reports_are_deterministic() {
    let a = scan("positive");
    let b = scan("positive");
    assert_eq!(a, b);
    assert_eq!(lint::render_human(&a), lint::render_human(&b));
    assert_eq!(lint::render_json(&a, None), lint::render_json(&b, None));
    // Sorted by (file, line, rule, message).
    let keys: Vec<_> = a
        .findings
        .iter()
        .map(|f| (f.file.clone(), f.line, f.rule, f.message.clone()))
        .collect();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(keys, sorted);
}

#[test]
fn timings_appear_only_when_handed_in_and_follow_the_table() {
    let root = fixture_root("positive");
    let (a, timings) = scan_workspace(&root).expect("scan 1");
    let (b, _) = scan_workspace(&root).expect("scan 2");
    let plain = lint::render_json(&a, None);
    assert_eq!(plain, lint::render_json(&b, None));
    assert!(!plain.contains("timings_ms"));

    let timed = lint::render_json(&a, Some(&timings));
    let block = timed
        .split_once("\"timings_ms\": {")
        .and_then(|(_, rest)| rest.split_once('}'))
        .expect("timings_ms block present")
        .0;
    let keys: Vec<&str> = block.split('"').skip(1).step_by(2).collect();
    let mut expected = vec!["infra:callgraph", "infra:parse", "total"];
    expected.extend(lint::rules::RULES.iter().map(|r| r.name));
    expected.sort_unstable();
    assert_eq!(
        keys, expected,
        "one key per RULES row, the stages, the total"
    );
}

#[test]
fn json_report_mentions_each_rule_and_anchor() {
    let report = scan("positive");
    let json = lint::render_json(&report, None);
    for rule in lint::rules::RULE_NAMES {
        assert!(json.contains(rule), "JSON report missing rule {rule}");
    }
    assert!(json.contains("\"file\": \"crates/fl/src/violations.rs\""));
    assert!(json.contains("\"line\": 11"));
}

#[test]
fn seeded_unchecked_tainted_length_is_caught() {
    // Acceptance criterion: an unchecked length that flowed in from disk
    // must fail with a file:line diagnostic carrying the taint chain.
    let scratch = std::env::temp_dir().join(format!("fedlint-taint-{}", std::process::id()));
    let src = scratch.join("crates").join("fl").join("src");
    std::fs::create_dir_all(&src).expect("scratch tree");
    std::fs::write(
        src.join("wire.rs"),
        "pub fn decode_len(path: &std::path::Path) -> Vec<u8> {\n    \
         let bytes = std::fs::read(path).unwrap_or_default();\n    \
         let n = bytes.first().copied().unwrap_or(0) as usize;\n    \
         Vec::with_capacity(n * 8)\n}\n",
    )
    .expect("write seeded violation");
    let (report, _) = scan_workspace(&scratch).expect("scratch scans");
    std::fs::remove_dir_all(&scratch).ok();
    let hits = lines_for(&report, "untrusted-input-taint", "wire.rs");
    assert_eq!(hits, vec![4, 4], "arithmetic + allocation sinks on line 4");
    let human = lint::render_human(&report);
    assert!(
        human.contains("crates/fl/src/wire.rs:4: [untrusted-input-taint]"),
        "diagnostic must carry file:line and the rule name:\n{human}"
    );
    assert!(
        human.contains("`fs::read()` at crates/fl/src/wire.rs:2"),
        "diagnostic must name the taint origin:\n{human}"
    );
}

#[test]
fn seeded_instant_into_checkpoint_is_caught() {
    // Acceptance criterion: an `Instant::now` reading flowed into a
    // checkpoint constructor must fail with the full chain in the message.
    let scratch = std::env::temp_dir().join(format!("fedlint-det-{}", std::process::id()));
    let src = scratch.join("crates").join("fl").join("src");
    std::fs::create_dir_all(&src).expect("scratch tree");
    std::fs::write(
        src.join("resume.rs"),
        "pub struct Checkpoint {\n    pub stamp: u64,\n}\n\n\
         pub fn snapshot() -> Checkpoint {\n    \
         let stamp = std::time::Instant::now().elapsed().as_nanos() as u64;\n    \
         Checkpoint { stamp }\n}\n",
    )
    .expect("write seeded violation");
    let (report, _) = scan_workspace(&scratch).expect("scratch scans");
    std::fs::remove_dir_all(&scratch).ok();
    let hits = lines_for(&report, "determinism-taint", "resume.rs");
    assert_eq!(hits, vec![7], "the Checkpoint literal is the sink");
    let human = lint::render_human(&report);
    assert!(
        human.contains("crates/fl/src/resume.rs:7: [determinism-taint]"),
        "diagnostic must carry file:line and the rule name:\n{human}"
    );
    assert!(
        human.contains("`Instant::now()` at crates/fl/src/resume.rs:6 -> `stamp`"),
        "diagnostic must carry the taint chain:\n{human}"
    );
}
