//! The zero-finding state, pinned: `fedlint --deny` must pass on this
//! workspace, so a change that breaks one of its invariants fails this test
//! (and the `== fedlint ==` CI step) with a file:line diagnostic. No
//! `confinement` row may pass only because its home went missing, and the
//! clippy lints that check what fedlint leaves to clippy must stay switched
//! on where they are.

use lint::rules::{analyze_source, Confined, FileContext, Home, CONFINED};
use lint::Timings;
use std::path::{Path, PathBuf};

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

/// Every `.rs` file under `dir`.
fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for path in std::fs::read_dir(dir)
        .expect("readable dir")
        .flatten()
        .map(|e| e.path())
    {
        if path.is_dir() {
            rs_files(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

/// The `confinement` findings in one source file, counted per `CONFINED` row.
fn confined_per_row(rel_path: &str, src: &str) -> Vec<usize> {
    let ctx = FileContext {
        crate_name: "",
        rel_path,
        is_bin: false,
        test_tree: false,
    };
    let findings = analyze_source(&ctx, src, &mut Timings::default());
    let count = |row: &Confined| {
        let prefix = format!("{}: ", row.name);
        findings
            .iter()
            .filter(|f| f.message.starts_with(&prefix))
            .count()
    };
    CONFINED.iter().map(count).collect()
}

/// No `confinement` row may guard nothing: each home holds at least one of
/// its row's matches — every home file of a row, and at least one `const`
/// table — so a renamed home file, method or flag table cannot empty a row
/// silently. Each file of `crates/` and `vendor/` is scanned twice: as it
/// is, and homeless — moved off its path (a suffix keeps it in every scope)
/// with its `const`s turned into `static`s. The findings only the homeless
/// scan reports are the matches that sat in a home.
#[test]
fn every_confinement_home_holds_a_match() {
    let root = workspace_root();
    let mut files = Vec::new();
    rs_files(&root.join("crates"), &mut files);
    rs_files(&root.join("vendor"), &mut files);
    // Per row, the files holding a match in a home.
    let mut in_home = vec![Vec::new(); CONFINED.len()];
    for file in &files {
        let rel = file
            .strip_prefix(&root)
            .expect("under the root")
            .to_string_lossy()
            .into_owned();
        let src = std::fs::read_to_string(file).expect("readable source");
        let here = confined_per_row(&rel, &src);
        let homeless = confined_per_row(&format!("{rel}~"), &src.replace("const ", "static "));
        for (homes, (away, at_home)) in in_home.iter_mut().zip(homeless.iter().zip(&here)) {
            if away > at_home {
                homes.push(rel.clone());
            }
        }
    }
    for (row, homes) in CONFINED.iter().zip(in_home) {
        let missing: Vec<&str> = match row.home {
            Home::Nowhere => Vec::new(),
            Home::Const(_) if homes.is_empty() => vec!["its `const` table"],
            Home::Const(_) => Vec::new(),
            Home::Files(files) => files
                .iter()
                .copied()
                .filter(|f| !homes.iter().any(|h| h == f))
                .collect(),
        };
        assert!(
            missing.is_empty(),
            "`{}` matches nowhere in {missing:?}: that home guards nothing",
            row.name
        );
    }
}

#[test]
fn workspace_scan_is_byte_identical_across_runs() {
    let root = workspace_root();
    let (a, _) = lint::scan_workspace(&root).expect("scan 1");
    let (b, _) = lint::scan_workspace(&root).expect("scan 2");
    assert_eq!(lint::render_human(&a), lint::render_human(&b));
    assert_eq!(lint::render_json(&a, None), lint::render_json(&b, None));
}

/// What fedlint leaves to clippy is switched on where DESIGN.md §8 says:
/// dropping one of these lines would drop its check without a finding.
#[test]
fn clippy_checks_are_switched_on() {
    let root = workspace_root();
    let read = |rel: &str| std::fs::read_to_string(root.join(rel)).expect(rel);
    // Library code does not panic, and compares floats exactly only with a
    // stated reason: the six product libraries and the crates they call, so
    // a panic site anywhere on their call chains is itself an error.
    for krate in [
        "crates/tensor",
        "crates/nn",
        "crates/data",
        "crates/cluster",
        "crates/fl",
        "crates/core",
        "crates/proto",
        "vendor/rand",
        "vendor/rayon",
    ] {
        let src: String = read(&format!("{krate}/src/lib.rs"))
            .split_whitespace()
            .collect();
        let attr = src
            .split_once("#![cfg_attr(not(test),deny(")
            .and_then(|(_, rest)| rest.split_once("))]"))
            .map(|(lints, _)| lints)
            .unwrap_or_else(|| panic!("{krate}: no `cfg_attr(not(test), deny(…))` at the root"));
        for lint in [
            "unwrap_used",
            "expect_used",
            "panic",
            "todo",
            "unimplemented",
            "unreachable",
            "float_cmp",
        ] {
            assert!(
                attr.split(',').any(|l| l == format!("clippy::{lint}")),
                "{krate}: the root's deny is missing `clippy::{lint}`"
            );
        }
    }
    // Documented `unsafe`, in every member.
    let workspace = read("Cargo.toml");
    assert!(
        workspace.contains("[workspace.lints.clippy]\n")
            && workspace.contains("\nundocumented_unsafe_blocks = \"deny\"\n"),
        "the workspace manifest must deny `undocumented_unsafe_blocks`"
    );
    let mut manifests = vec![root.join("Cargo.toml")];
    for parent in ["crates", "vendor"] {
        let dirs = std::fs::read_dir(root.join(parent))
            .expect(parent)
            .flatten();
        manifests.extend(dirs.map(|dir| dir.path().join("Cargo.toml")));
    }
    for manifest in manifests {
        let text = std::fs::read_to_string(&manifest).expect("member manifest");
        assert!(
            text.contains("\n[lints]\nworkspace = true\n"),
            "{} does not take the workspace lints (`[lints] workspace = true`)",
            manifest.display()
        );
    }
    // Hasher-ordered containers, and `# Safety` on private `unsafe fn`s.
    let clippy: String = read("clippy.toml").split_whitespace().collect();
    for line in [
        "{path=\"std::collections::HashMap\"",
        "{path=\"std::collections::HashSet\"",
        "check-private-items=true",
    ] {
        assert!(clippy.contains(line), "clippy.toml is missing `{line}`");
    }
}
