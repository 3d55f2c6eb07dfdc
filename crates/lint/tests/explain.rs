//! The `RULES` table backs `--explain`, the pragma validator and the
//! report keys: its rows must stay sorted and unique (deterministic listing
//! order, and `RULE_NAMES` is derived from them), every doc must say
//! something, and the README rule list and DESIGN.md's §8 tables must
//! agree with it so none of them can drift apart.

use lint::rules::{PRAGMA_SYNTAX, RULES, RULE_NAMES};

#[test]
fn rules_are_sorted_unique_and_substantive() {
    let names: Vec<&str> = RULES.iter().map(|r| r.name).collect();
    let mut sorted = names.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(names, sorted, "RULES must stay sorted by name, no repeats");
    assert_eq!(names, RULE_NAMES, "RULE_NAMES is RULES' name column");
    assert_eq!(names.len(), 6, "no rule merged, renamed or dropped");
    assert!(!names.contains(&PRAGMA_SYNTAX.0), "the built-in is no row");
    let docs = RULES.iter().map(|r| (r.name, r.doc)).chain([PRAGMA_SYNTAX]);
    for (name, doc) in docs {
        assert!(
            doc.len() > 60,
            "doc for {name} is too short to be useful: {doc:?}"
        );
    }
}

#[test]
fn readme_and_design_rule_lists_match_the_table() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../../");
    let readme = std::fs::read_to_string(format!("{root}README.md")).expect("read README.md");
    let design = std::fs::read_to_string(format!("{root}DESIGN.md")).expect("read DESIGN.md");
    for rule in RULE_NAMES {
        assert!(
            readme.contains(rule),
            "README rule list is missing `{rule}` — it must stay in sync with RULES"
        );
        assert!(
            design.contains(&format!("| `{rule}` |")),
            "DESIGN.md §8 has no table row for `{rule}` — it must stay in sync with RULES"
        );
    }
    assert!(
        readme.contains(&format!("{} rules", RULES.len())),
        "README must state the rule count ({} rules)",
        RULES.len()
    );
}
