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
        vec![10, 11, 18, 19, 28, 29],
        "unchecked `+` and slice index in Reader::take, unchecked `-` and bare index in unseal; \
         write-side sealed_len stays silent; Reader::array is read although its header's array \
         type holds a `;`"
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
            ("crates/fl/src/streams_dup.rs", 4, "one streams table"),
            (
                "crates/fl/src/taint_len.rs",
                5,
                "two doors for hostile bytes"
            ),
            ("crates/fl/src/taint_time.rs", 18, "no clocks"),
            ("crates/fl/src/taint_time.rs", 23, "no clocks"),
            ("crates/lint/src/main.rs", 5, "one rule table"),
            ("tests/seal.rs", 5, "one byte layer"),
        ],
        "a flag twice in one table and one outside any; the door call sits past a doc comment \
         naming `#[cfg(test)]`; the test trees are read; a line naming two lock types is one \
         finding; a clock and a read are flagged where they are written, a `streams` table \
         outside its home where it opens"
    );
    assert_eq!(report.findings.len(), 38, "the whole positive tree");
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
    let mut expected = vec!["infra:parse", "total"];
    expected.extend(lint::rules::RULES.iter().map(|r| r.name));
    expected.sort_unstable();
    assert_eq!(
        keys, expected,
        "one key per RULES row, the parse stage, the total"
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

/// Scan a scratch tree holding `files` (workspace-relative path, source)
/// and return its human report.
fn scan_seeded(tag: &str, files: &[(&str, &str)]) -> String {
    let scratch = std::env::temp_dir().join(format!("fedlint-{tag}-{}", std::process::id()));
    for (rel, src) in files {
        let path = scratch.join(rel);
        std::fs::create_dir_all(path.parent().expect("a parent")).expect("scratch tree");
        std::fs::write(&path, src).expect("write seeded source");
    }
    let scanned = scan_workspace(&scratch);
    std::fs::remove_dir_all(&scratch).ok();
    lint::render_human(&scanned.expect("scratch scans").0)
}

#[test]
fn seeded_unchecked_tainted_length_is_caught() {
    // A read from disk outside the two doors for hostile bytes fails where
    // it is written, with a file:line diagnostic naming the row.
    let human = scan_seeded(
        "taint",
        &[(
            "crates/fl/src/wire.rs",
            "pub fn decode_len(path: &std::path::Path) -> Vec<u8> {\n    \
             let bytes = std::fs::read(path).unwrap_or_default();\n    \
             let n = bytes.first().copied().unwrap_or(0) as usize;\n    \
             Vec::with_capacity(n * 8)\n}\n",
        )],
    );
    assert_eq!(
        human.lines().next(),
        Some("crates/fl/src/wire.rs:2: [confinement] two doors for hostile bytes: bytes come in through `proto::wire` (frames) or `fl::checkpoint` (images), whose decoders are held to checked arithmetic; read through them"),
        "{human}"
    );
    assert!(human.contains("fedlint: 1 finding(s)"), "{human}");
}

#[test]
fn seeded_instant_into_checkpoint_is_caught() {
    // An `Instant::now` reading bound for a checkpoint fails at the clock.
    let human = scan_seeded(
        "det",
        &[(
            "crates/fl/src/resume.rs",
            "pub struct Checkpoint {\n    pub stamp: u64,\n}\n\n\
             pub fn snapshot() -> Checkpoint {\n    \
             let stamp = std::time::Instant::now().elapsed().as_nanos() as u64;\n    \
             Checkpoint { stamp }\n}\n",
        )],
    );
    assert!(
        human.starts_with("crates/fl/src/resume.rs:6: [confinement] no clocks: "),
        "diagnostic must carry file:line, the rule and the row:\n{human}"
    );
    assert!(human.contains("fedlint: 1 finding(s)"), "{human}");
}

#[test]
fn seeded_second_streams_table_is_caught() {
    // A second `streams` table fails where it opens and the home stays
    // silent: a label colliding with the home's shows through the row.
    let human = scan_seeded(
        "streams",
        &[
            (
                "crates/tensor/src/rng.rs",
                "pub mod streams {\n    pub const ROUND: u64 = 1;\n}\n",
            ),
            (
                "crates/fl/src/lib.rs",
                "//! Library root.\n\npub mod streams {\n    pub const LATE: u64 = 1;\n}\n",
            ),
        ],
    );
    assert!(
        human.starts_with("crates/fl/src/lib.rs:3: [confinement] one streams table: "),
        "diagnostic must carry file:line, the rule and the row:\n{human}"
    );
    assert!(human.contains("fedlint: 1 finding(s)"), "{human}");
}
