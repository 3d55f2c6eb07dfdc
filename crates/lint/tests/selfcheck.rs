//! The zero-finding state, pinned: `fedlint --deny` must pass on this
//! workspace. Any PR that reintroduces a HashMap on a replayed path, an
//! unjustified `unsafe`, or a panic in library code fails this test (and the
//! `== fedlint ==` CI step) with a file:line diagnostic.

use std::path::PathBuf;

fn workspace_root() -> PathBuf {
    // crates/lint -> crates -> workspace root
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .canonicalize()
        .expect("workspace root resolves")
}

#[test]
fn workspace_is_finding_free() {
    let (report, _) = lint::scan_workspace(&workspace_root()).expect("workspace scans");
    assert!(
        report.findings.is_empty(),
        "fedlint must stay clean on the workspace; drive these to zero or add justified pragmas:\n{}",
        lint::render_human(&report)
    );
    // Sanity: the scan actually covered the workspace, not an empty dir.
    assert!(
        report.files_scanned >= 50,
        "only {} files scanned — walker broke?",
        report.files_scanned
    );
}

#[test]
fn workspace_scan_is_byte_identical_across_runs() {
    let root = workspace_root();
    let (a, _) = lint::scan_workspace(&root).expect("scan 1");
    let (b, _) = lint::scan_workspace(&root).expect("scan 2");
    assert_eq!(lint::render_human(&a), lint::render_human(&b));
    assert_eq!(lint::render_json(&a, None), lint::render_json(&b, None));
}
