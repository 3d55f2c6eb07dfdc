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
    assert_eq!(
        lines_for(&report, "pool-discipline", "pool_bad.rs"),
        vec![14],
        "naked Relaxed"
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
            ("crates/fl/src/confined.rs", 5, "one byte layer"),
            ("crates/fl/src/confined.rs", 8, "one upload rule"),
            ("crates/fl/src/confined.rs", 13, "one door to clients"),
            ("crates/fl/src/confined.rs", 16, "no serde"),
            ("crates/fl/src/confined.rs", 20, "bench-only lowering"),
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
         fork both count, its test module does not"
    );
    assert_eq!(report.findings.len(), 46, "the whole positive tree");
    // v4 interprocedural concurrency rules.
    assert_eq!(
        lines_for(&report, "lock-order-global", "pool_bad.rs"),
        vec![19, 25],
        "both halves of the same-file reversed lock pair"
    );
    assert_eq!(
        lines_for(&report, "lock-order-global", "conc_cycle_a.rs"),
        vec![13],
        "the call site that acquires beta while alpha is held"
    );
    assert_eq!(
        lines_for(&report, "lock-order-global", "conc_cycle_b.rs"),
        vec![14],
        "the call site that closes the cycle in the other file"
    );
    assert_eq!(
        lines_for(&report, "guard-across-blocking", "conc_block.rs"),
        vec![14, 20, 30],
        "direct sleep under a guard, a call whose callee writes a socket, and a call whose \
         callee forks and joins threads"
    );
    assert_eq!(
        lines_for(&report, "guard-across-blocking", "registry.rs"),
        vec![22, 27],
        "a socket write under an `RwLock` read guard, and under a free-fn `lock(&x)` guard"
    );
    assert_eq!(
        lines_for(&report, "atomic-ordering-pairing", "conc_atomic.rs"),
        vec![12, 16],
        "unpaired Release store and unpaired Acquire load"
    );
}

#[test]
fn concurrency_findings_carry_full_interprocedural_chains() {
    let report = scan("positive");
    let cycle = report
        .findings
        .iter()
        .find(|f| f.rule == "lock-order-global" && f.file.ends_with("conc_cycle_a.rs"))
        .expect("cross-file cycle finding present");
    assert!(
        cycle
            .message
            .contains("`alpha` is held while acquiring `beta`"),
        "cycle must name both locks: {}",
        cycle.message
    );
    assert!(
        cycle.message.contains(
            "lock `alpha` at vendor/rayon/src/conc_cycle_a.rs:12 -> \
             call `grab_beta` at vendor/rayon/src/conc_cycle_a.rs:13 -> \
             lock `beta` at vendor/rayon/src/conc_cycle_b.rs:8"
        ),
        "cycle must spell out the full cross-file acquisition chain: {}",
        cycle.message
    );
    let blocked = report
        .findings
        .iter()
        .find(|f| f.rule == "guard-across-blocking" && f.line == 20)
        .expect("transitive blocking finding present");
    assert!(
        blocked.message.contains(
            "lock `journal` at vendor/rayon/src/conc_block.rs:19 -> \
             call `ship` at vendor/rayon/src/conc_block.rs:20 -> \
             `write_all` at vendor/rayon/src/conc_block.rs:25"
        ),
        "blocking chain must reach the socket write with file:line hops: {}",
        blocked.message
    );
    let forked = report
        .findings
        .iter()
        .find(|f| f.rule == "guard-across-blocking" && f.line == 30)
        .expect("fork-join finding present");
    assert!(
        forked.message.contains(
            "lock `journal` at vendor/rayon/src/conc_block.rs:29 -> \
             call `fan_out` at vendor/rayon/src/conc_block.rs:30 -> \
             `scope` at vendor/rayon/src/conc_block.rs:35"
        ),
        "a parallel map's fork-join blocks like any join: {}",
        forked.message
    );
    let atomic = report
        .findings
        .iter()
        .find(|f| f.rule == "atomic-ordering-pairing" && f.line == 12)
        .expect("unpaired release finding present");
    assert!(
        atomic
            .message
            .contains("`ready.store` stores with `Ordering::Release`"),
        "pairing finding must name the field, op, and ordering: {}",
        atomic.message
    );
}

#[test]
fn rwlock_and_free_fn_lock_guards_carry_their_chains() {
    let report = scan("positive");
    let messages: Vec<&str> = report
        .findings
        .iter()
        .filter(|f| f.file == "crates/cli/src/registry.rs")
        .map(|f| f.message.as_str())
        .collect();
    assert_eq!(
        messages,
        [
            "guard on `entries` is held across blocking `write_all` (lock `entries` at \
             crates/cli/src/registry.rs:21 -> `write_all` at crates/cli/src/registry.rs:22); \
             drop the guard or shrink its scope before blocking",
            "guard on `queue` is held across blocking `write_all` (lock `queue` at \
             crates/cli/src/registry.rs:26 -> `write_all` at crates/cli/src/registry.rs:27); \
             drop the guard or shrink its scope before blocking",
        ]
    );
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
    assert_eq!(report.files_scanned, 18);
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
    let mut expected = vec![
        "infra:callgraph",
        "infra:lockset-engine",
        "infra:parse",
        "total",
    ];
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

#[test]
fn seeded_reversed_lock_pair_is_caught() {
    // Acceptance criterion: a reversed Mutex pair in the vendored pool must
    // fail with both cycle halves anchored to file:line.
    let scratch = std::env::temp_dir().join(format!("fedlint-pool-{}", std::process::id()));
    std::fs::create_dir_all(scratch.join("crates")).expect("scratch tree");
    let src = scratch.join("vendor").join("rayon").join("src");
    std::fs::create_dir_all(&src).expect("scratch vendor tree");
    std::fs::write(
        src.join("queue.rs"),
        "use std::sync::Mutex;\n\npub struct Q {\n    pub head: Mutex<u32>,\n    \
         pub tail: Mutex<u32>,\n}\n\npub fn push(q: &Q) -> u32 {\n    \
         let h = q.head.lock().unwrap();\n    let t = q.tail.lock().unwrap();\n    \
         *h + *t\n}\n\npub fn pop(q: &Q) -> u32 {\n    \
         let t = q.tail.lock().unwrap();\n    let h = q.head.lock().unwrap();\n    \
         *h - *t\n}\n",
    )
    .expect("write seeded violation");
    let (report, _) = scan_workspace(&scratch).expect("scratch scans");
    std::fs::remove_dir_all(&scratch).ok();
    let hits = lines_for(&report, "lock-order-global", "queue.rs");
    assert_eq!(hits, vec![10, 16], "both halves of the reversed pair");
    let human = lint::render_human(&report);
    assert!(
        human.contains("vendor/rayon/src/queue.rs:10: [lock-order-global]"),
        "diagnostic must carry file:line and the rule name:\n{human}"
    );
    assert!(
        human.contains("`head` is held while acquiring `tail`"),
        "diagnostic must name the cycle:\n{human}"
    );
    assert!(
        human.contains(
            "lock `head` at vendor/rayon/src/queue.rs:9 -> \
             lock `tail` at vendor/rayon/src/queue.rs:10"
        ),
        "diagnostic must carry the full acquisition chain:\n{human}"
    );
}

#[test]
fn seeded_guard_across_socket_write_is_caught_with_chain() {
    // Acceptance criterion: a guard held across a call whose callee writes
    // to a socket must fail with the exact file:line chain.
    let scratch = std::env::temp_dir().join(format!("fedlint-block-{}", std::process::id()));
    std::fs::create_dir_all(scratch.join("crates")).expect("scratch tree");
    let src = scratch.join("vendor").join("rayon").join("src");
    std::fs::create_dir_all(&src).expect("scratch vendor tree");
    std::fs::write(
        src.join("link.rs"),
        "use std::io::Write;\nuse std::sync::Mutex;\n\npub struct Link {\n    \
         pub meta: Mutex<u64>,\n}\n\npub fn send(l: &Link, out: &mut std::net::TcpStream) {\n    \
         let g = l.meta.lock().unwrap();\n    push_frame(out);\n    drop(g);\n}\n\n\
         fn push_frame(out: &mut std::net::TcpStream) {\n    \
         let _ = out.write_all(b\"x\");\n}\n",
    )
    .expect("write seeded violation");
    let (report, _) = scan_workspace(&scratch).expect("scratch scans");
    std::fs::remove_dir_all(&scratch).ok();
    let hits = lines_for(&report, "guard-across-blocking", "link.rs");
    assert_eq!(hits, vec![10], "the call site holding the guard");
    let human = lint::render_human(&report);
    assert!(
        human.contains("vendor/rayon/src/link.rs:10: [guard-across-blocking]"),
        "diagnostic must carry file:line and the rule name:\n{human}"
    );
    assert!(
        human.contains(
            "lock `meta` at vendor/rayon/src/link.rs:9 -> \
             call `push_frame` at vendor/rayon/src/link.rs:10 -> \
             `write_all` at vendor/rayon/src/link.rs:15"
        ),
        "diagnostic must carry the full interprocedural chain:\n{human}"
    );
}
