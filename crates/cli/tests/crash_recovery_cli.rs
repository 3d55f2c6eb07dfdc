//! Kill-and-resume through the real binary: a run crashed by the
//! deterministic injector and then resumed in a fresh process must print
//! byte-identical `--json` output to an uninterrupted run.

use std::path::PathBuf;
use std::process::{Command, Output};

/// Exit code the crash injector uses (fedclust_fl::faults::CRASH_EXIT_CODE).
const CRASH_EXIT_CODE: i32 = 86;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_fedclust-cli"))
}

fn base_args(method: &str) -> Vec<String> {
    [
        "run",
        "--method",
        method,
        "--dataset",
        "fmnist",
        "--partition",
        "skew50",
        "--clients",
        "4",
        "--rounds",
        "4",
        "--epochs",
        "1",
        "--samples-per-class",
        "10",
        "--seed",
        "7",
        "--json",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("fedclust-cli-ckpt-{}-{}", tag, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn run(args: &[String]) -> Output {
    bin().args(args).output().expect("binary runs")
}

fn stdout_of(out: &Output) -> String {
    assert!(
        out.status.success(),
        "run failed: {}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// Crash a checkpointed run after round 1, resume it in a new process, and
/// require the resumed `--json` output to match an uninterrupted run
/// byte for byte.
fn crash_and_resume_matches(method: &str, mid_write: bool) {
    let tag = format!("{}-{}", method, if mid_write { "torn" } else { "clean" });
    let dir = tmpdir(&tag);
    let dir_s = dir.to_string_lossy().into_owned();

    let clean = stdout_of(&run(&base_args(method)));

    let mut crash_args = base_args(method);
    crash_args.extend(
        [
            "--checkpoint-dir",
            &dir_s,
            "--checkpoint-every",
            "1",
            "--keep",
            "8",
            "--crash-after",
            "1",
        ]
        .iter()
        .map(|s| s.to_string()),
    );
    if mid_write {
        crash_args.push("--crash-mid-write".into());
    }
    let crashed = run(&crash_args);
    assert_eq!(
        crashed.status.code(),
        Some(CRASH_EXIT_CODE),
        "crash injector did not fire: {}\n{}",
        crashed.status,
        String::from_utf8_lossy(&crashed.stderr)
    );

    let mut resume_args = base_args(method);
    resume_args.extend(
        ["--checkpoint-dir", &dir_s, "--keep", "8", "--resume"]
            .iter()
            .map(|s| s.to_string()),
    );
    let resumed_out = run(&resume_args);
    let resumed = stdout_of(&resumed_out);
    let stderr = String::from_utf8_lossy(&resumed_out.stderr);
    assert!(
        stderr.contains("resuming"),
        "expected a resume diagnostic on stderr, got: {}",
        stderr
    );
    assert_eq!(clean, resumed, "{}: resumed output diverged", method);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fedavg_crash_resume_is_byte_identical() {
    crash_and_resume_matches("fedavg", false);
}

#[test]
fn scaffold_crash_resume_is_byte_identical() {
    crash_and_resume_matches("scaffold", false);
}

#[test]
fn fedclust_crash_resume_is_byte_identical() {
    crash_and_resume_matches("fedclust", false);
}

#[test]
fn torn_checkpoint_write_recovers_from_an_older_generation() {
    // The injector dies halfway through writing the round-1 checkpoint;
    // the temp file never becomes a generation, so resume starts from the
    // round-0 one — and still matches the uninterrupted run exactly.
    crash_and_resume_matches("fedavg", true);
}

#[test]
fn resume_with_a_different_seed_is_refused() {
    let dir = tmpdir("seed-mismatch");
    let dir_s = dir.to_string_lossy().into_owned();

    let mut first = base_args("fedavg");
    first.extend(["--checkpoint-dir", &dir_s].iter().map(|s| s.to_string()));
    stdout_of(&run(&first));

    let mut mismatched = base_args("fedavg");
    mismatched.extend(
        ["--checkpoint-dir", &dir_s, "--resume", "--seed", "8"]
            .iter()
            .map(|s| s.to_string()),
    );
    let out = run(&mismatched);
    assert_eq!(out.status.code(), Some(1), "{}", out.status);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("seed"), "unhelpful error: {}", stderr);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn local_refuses_the_checkpoint_flags_it_would_ignore() {
    let dir = tmpdir("local");
    let dir_s = dir.to_string_lossy().into_owned();

    let mut args = base_args("local");
    args.extend(
        ["--checkpoint-dir", &dir_s, "--crash-after", "0"]
            .iter()
            .map(|s| s.to_string()),
    );
    let out = run(&args);
    assert_eq!(out.status.code(), Some(1), "{}", out.status);
    assert!(out.stdout.is_empty(), "a result was printed");
    assert_eq!(
        String::from_utf8_lossy(&out.stderr),
        "error: wrong checkpoint state: Local keeps no server state to checkpoint or resume\n"
    );
    assert!(!dir.exists(), "{} was created", dir.display());
}
