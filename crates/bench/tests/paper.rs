//! The `paper` binary end to end, at `FEDCLUST_FAST=1` scale: stdout is
//! its whole interface, so these run the real executable. The two tests
//! that train need an optimised build — a smoke-scale grid is 40 runs,
//! ~1.5 s in release and over two minutes unoptimised — so a debug
//! `cargo test` lists them as ignored and `scripts/ci.sh` runs this suite
//! with `--release`.

use std::process::{Command, Output};

/// Run `paper` at smoke scale with `env` on top.
fn paper(args: &[&str], env: &[(&str, &str)]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_paper"))
        .args(args)
        .env("FEDCLUST_FAST", "1")
        .env_remove("FEDCLUST_SEEDS")
        .envs(env.iter().copied())
        .output()
        .expect("run paper")
}

fn stdout(out: &Output) -> String {
    assert!(out.status.success(), "paper failed: {}", stderr(out));
    String::from_utf8(out.stdout.clone()).expect("utf-8 stdout")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
#[cfg_attr(debug_assertions, ignore = "trains 40 models; run with --release")]
fn artefacts_sharing_a_grid_train_it_once() {
    let out = paper(&["table1", "table4", "fig3"], &[]);
    let text = stdout(&out);
    for title in ["Table 1:", "Table 4:", "Fig. 3:"] {
        assert_eq!(text.matches(title).count(), 1, "{title} in\n{text}");
    }
    // One progress line per `method.run`: 4 datasets x 1 seed x 10 methods.
    let log = stderr(&out);
    let runs = |tag: &str| log.lines().filter(|l| l.starts_with(tag)).count();
    assert_eq!(runs("[grid skew20]"), 40, "{log}");
    assert_eq!(
        runs("[grid "),
        40,
        "only the skew-20 grid is needed:\n{log}"
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "trains ~250 models; run with --release")]
fn one_artefact_is_its_block_of_the_whole_record_and_repeats_exactly() {
    let table1 = stdout(&paper(&["table1"], &[]));
    assert_eq!(table1, stdout(&paper(&["table1"], &[])), "a second run");
    assert!(table1.starts_with("Table 1:") && table1.ends_with("|\n"));

    let all = stdout(&paper(&[], &[]));
    assert!(
        all.starts_with(&format!("{table1}\nTable 2:")),
        "the record does not open with the Table 1 block:\n{all}"
    );
    // Named in any order, and twice, artefacts still print once, in table order.
    let picked = stdout(&paper(&["fig1", "table1", "fig1"], &[]));
    let fig1 = stdout(&paper(&["fig1"], &[]));
    assert_eq!(picked, format!("{table1}\n{fig1}"));
    assert!(all.contains(&format!("\n\n{fig1}\n")));
}

#[test]
fn knobs_and_names_that_are_not_understood_fail_loudly() {
    for (knob, value) in [
        ("FEDCLUST_SEEDS", "0"),
        ("FEDCLUST_SEEDS", "three"),
        ("FEDCLUST_FAST", "true"),
    ] {
        let out = paper(&["fig1"], &[(knob, value)]);
        assert_eq!(out.status.code(), Some(2), "{knob}={value}");
        assert!(out.stdout.is_empty(), "{knob}={value} printed an artefact");
        let msg = stderr(&out);
        assert!(msg.contains(&format!("{knob}={value}")), "{msg}");
    }
    for unknown in ["table7", "--refresh"] {
        let out = paper(&["table1", unknown], &[]);
        assert_eq!(out.status.code(), Some(2), "{unknown}");
        assert!(out.stdout.is_empty(), "{unknown} printed an artefact");
        let msg = stderr(&out);
        assert!(msg.contains(unknown), "{msg}");
        assert!(
            msg.contains("table1 table2 table3 table4 table5 table6 fig1 fig3 fig4 shape"),
            "{msg}"
        );
    }
}
