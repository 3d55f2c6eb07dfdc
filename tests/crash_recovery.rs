//! Crash-safe checkpointing: a run that checkpoints every round is
//! observationally identical to one that doesn't, a resumed run is
//! bit-identical to an uninterrupted one — in results *and* in the final
//! checkpoint bytes — and corrupted or truncated generations are detected
//! and skipped without panicking.

use std::path::PathBuf;

use fedclust_repro::data::{DatasetProfile, FederatedDataset, Partition};
use fedclust_repro::fedclust::FedClust;
use fedclust_repro::fl::checkpoint::generation_file;
use fedclust_repro::fl::methods::{
    Cfl, FedAvg, FedDyn, FedNova, FedProx, Ifca, LgFedAvg, Pacfl, PerFedAvg, Scaffold,
};
use fedclust_repro::fl::{
    run_federation, CheckpointError, Checkpointer, FlConfig, FlMethod, RunResult,
};

fn fd(seed: u64) -> FederatedDataset {
    FederatedDataset::build(
        DatasetProfile::FmnistLike,
        Partition::LabelSkew { fraction: 0.3 },
        &fedclust_repro::data::federated::FederatedConfig {
            num_clients: 6,
            samples_per_class: 12,
            seed,
        },
    )
}

fn cfg(seed: u64, rounds: usize) -> FlConfig {
    let mut cfg = FlConfig::tiny(seed);
    cfg.rounds = rounds;
    cfg
}

/// Fresh per-test temp directory (removed on entry so reruns start clean).
fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fedclust-ckpt-{}-{}", tag, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn all_methods() -> Vec<Box<dyn FlMethod>> {
    vec![
        Box::new(FedAvg),
        Box::new(FedProx),
        Box::new(FedNova),
        Box::new(LgFedAvg),
        Box::new(PerFedAvg),
        Box::new(Cfl),
        Box::new(Ifca::default()),
        Box::new(Pacfl),
        Box::new(Scaffold),
        Box::new(FedDyn),
        Box::new(FedClust::default()),
    ]
}

/// Run `rounds` rounds with per-round checkpointing into `dir`.
fn run_checkpointed(
    m: &dyn FlMethod,
    fd: &FederatedDataset,
    cfg: &FlConfig,
    dir: &PathBuf,
    resume: bool,
) -> (Result<RunResult, CheckpointError>, Checkpointer) {
    let mut ckpt = Checkpointer::new(dir).keep(8).resume(resume);
    let result = m.run_hosted(fd, cfg, &mut ckpt, None);
    (result, ckpt)
}

#[test]
fn checkpointing_is_transparent_for_every_method() {
    let fd = fd(3);
    let cfg = cfg(3, 2);
    for m in all_methods() {
        let dir = tmpdir(&format!("transparent-{}", m.name().to_lowercase()));
        let plain = m.run(&fd, &cfg);
        let (checked, _) = run_checkpointed(m.as_ref(), &fd, &cfg, &dir, false);
        let checked = checked.expect("checkpointed run succeeds");
        assert_eq!(
            plain,
            checked,
            "{}: checkpointing changed the run",
            m.name()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn resume_is_bit_identical_for_every_method() {
    let fd = fd(5);
    let full = cfg(5, 4);
    let partial = cfg(5, 2);
    for m in all_methods() {
        let name = m.name().to_lowercase();
        let dir_a = tmpdir(&format!("resume-a-{}", name));
        let dir_b = tmpdir(&format!("resume-b-{}", name));

        // Uninterrupted reference run, checkpointing every round.
        let (reference, _) = run_checkpointed(m.as_ref(), &fd, &full, &dir_a, false);
        let reference = reference.expect("reference run succeeds");

        // Interrupted run: stop after 2 of 4 rounds (simulating a kill at a
        // round boundary), then resume to the full horizon in what stands
        // in for a fresh process.
        let (partial_result, _) = run_checkpointed(m.as_ref(), &fd, &partial, &dir_b, false);
        partial_result.expect("partial run succeeds");
        let (resumed, ckpt) = run_checkpointed(m.as_ref(), &fd, &full, &dir_b, true);
        let resumed = resumed.expect("resumed run succeeds");
        assert!(
            ckpt.diagnostics().iter().any(|d| d.contains("resuming")),
            "{}: no resume diagnostic: {:?}",
            m.name(),
            ckpt.diagnostics()
        );

        assert_eq!(reference, resumed, "{}: resume diverged", m.name());

        // The final checkpoint generation must match byte for byte: same
        // model state, same meters, same history, same encoding.
        let last_a = std::fs::read(dir_a.join(generation_file(4))).expect("final gen in dir_a");
        let last_b = std::fs::read(dir_b.join(generation_file(4))).expect("final gen in dir_b");
        assert_eq!(
            last_a,
            last_b,
            "{}: final checkpoint bytes differ",
            m.name()
        );

        let _ = std::fs::remove_dir_all(&dir_a);
        let _ = std::fs::remove_dir_all(&dir_b);
    }
}

#[test]
fn fedclust_resume_restores_the_federation_itself() {
    let fd = fd(7);
    let full = cfg(7, 4);
    let partial = cfg(7, 2);
    let method = FedClust::default();
    let dir = tmpdir("fedclust-detailed");

    let mut off = Checkpointer::disabled();
    let (reference, federation) =
        run_federation(&method, &fd, &full, &mut off, None).expect("reference run succeeds");

    let mut first = Checkpointer::new(&dir).keep(8);
    run_federation(&method, &fd, &partial, &mut first, None).expect("partial run succeeds");
    let mut second = Checkpointer::new(&dir).keep(8).resume(true);
    let (resumed, restored) =
        run_federation(&method, &fd, &full, &mut second, None).expect("resumed run succeeds");

    assert_eq!(reference, resumed);
    let (federation, restored) = (&federation.saved, &restored.saved);
    assert_eq!(federation.labels, restored.labels);
    assert_eq!(federation.cluster_states, restored.cluster_states);
    assert_eq!(federation.representatives, restored.representatives);
    assert_eq!(federation.init_state, restored.init_state);
    assert_eq!(federation.outcome, restored.outcome);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_newest_generation_falls_back_to_the_previous_one() {
    let fd = fd(9);
    let full = cfg(9, 3);
    let dir = tmpdir("fallback-corrupt");
    let (reference, _) = run_checkpointed(&FedAvg, &fd, &full, &dir, false);
    let reference = reference.expect("reference run succeeds");

    // Flip bytes in the middle of the newest generation: the checksum must
    // catch it and the loader must fall back to generation 2.
    let newest = dir.join(generation_file(3));
    let mut bytes = std::fs::read(&newest).expect("newest generation readable");
    let mid = bytes.len() / 2;
    for b in &mut bytes[mid..mid + 4] {
        *b ^= 0xFF;
    }
    std::fs::write(&newest, &bytes).expect("rewrite corrupted generation");

    let (resumed, ckpt) = run_checkpointed(&FedAvg, &fd, &full, &dir, true);
    let resumed = resumed.expect("resume after corruption succeeds");
    assert_eq!(reference, resumed);
    assert!(
        ckpt.diagnostics()
            .iter()
            .any(|d| d.contains("falling back")),
        "no fallback diagnostic: {:?}",
        ckpt.diagnostics()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncated_newest_generation_falls_back_to_the_previous_one() {
    let fd = fd(11);
    let full = cfg(11, 3);
    let dir = tmpdir("fallback-truncate");
    let (reference, _) = run_checkpointed(&Scaffold, &fd, &full, &dir, false);
    let reference = reference.expect("reference run succeeds");

    // A torn write that the atomic rename would normally prevent: the
    // newest generation ends mid-payload.
    let newest = dir.join(generation_file(3));
    let bytes = std::fs::read(&newest).expect("newest generation readable");
    std::fs::write(&newest, &bytes[..bytes.len() / 2]).expect("truncate generation");

    let (resumed, ckpt) = run_checkpointed(&Scaffold, &fd, &full, &dir, true);
    let resumed = resumed.expect("resume after truncation succeeds");
    assert_eq!(reference, resumed);
    assert!(
        ckpt.diagnostics()
            .iter()
            .any(|d| d.contains("falling back")),
        "no fallback diagnostic: {:?}",
        ckpt.diagnostics()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn all_generations_corrupt_starts_fresh_and_still_matches() {
    let fd = fd(13);
    let full = cfg(13, 3);
    let dir = tmpdir("fallback-all-corrupt");
    let (reference, _) = run_checkpointed(&FedAvg, &fd, &full, &dir, false);
    let reference = reference.expect("reference run succeeds");

    for gen in 1..=3 {
        let path = dir.join(generation_file(gen));
        std::fs::write(&path, b"not a checkpoint").expect("clobber generation");
    }

    let (resumed, ckpt) = run_checkpointed(&FedAvg, &fd, &full, &dir, true);
    let resumed = resumed.expect("fresh start after total corruption succeeds");
    assert_eq!(reference, resumed);
    assert!(
        ckpt.diagnostics()
            .iter()
            .any(|d| d.contains("starting fresh")),
        "no fresh-start diagnostic: {:?}",
        ckpt.diagnostics()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn seed_mismatch_is_rejected_not_silently_resumed() {
    let fd = fd(15);
    let dir = tmpdir("seed-mismatch");
    let (first, _) = run_checkpointed(&FedAvg, &fd, &cfg(15, 2), &dir, false);
    first.expect("first run succeeds");

    let mut ckpt = Checkpointer::new(&dir).resume(true);
    let err = FedAvg
        .run_hosted(&fd, &cfg(16, 2), &mut ckpt, None)
        .expect_err("resuming under a different seed must fail");
    assert!(
        matches!(err, CheckpointError::Mismatch(_)),
        "unexpected error: {:?}",
        err
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn retention_keeps_only_the_newest_generations() {
    let fd = fd(17);
    let full = cfg(17, 5);
    let dir = tmpdir("retention");
    let mut ckpt = Checkpointer::new(&dir).keep(2);
    FedAvg
        .run_hosted(&fd, &full, &mut ckpt, None)
        .expect("run succeeds");
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .expect("checkpoint dir readable")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    names.sort();
    assert_eq!(names, vec![generation_file(4), generation_file(5)]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn compressed_resume_is_bit_identical_including_residuals() {
    // Top-k error feedback threads mutable residual state through the
    // transport; a kill-and-resume must restore it exactly, or the
    // resumed trajectory (and the final checkpoint bytes, which embed
    // the residuals) silently drifts from the uninterrupted one.
    let fd = fd(23);
    for spec in ["topk:0.3", "delta+q8"] {
        let mut full = cfg(23, 4);
        full.codec = fedclust_repro::fl::CodecSpec::parse(spec).expect("codec spec parses");
        let mut partial = full;
        partial.rounds = 2;
        for m in [
            Box::new(FedAvg) as Box<dyn FlMethod>,
            Box::new(FedClust::default()),
        ] {
            let name = m.name().to_lowercase();
            let tag = spec.replace([':', '+', '.'], "-");
            let dir_a = tmpdir(&format!("codec-a-{tag}-{name}"));
            let dir_b = tmpdir(&format!("codec-b-{tag}-{name}"));

            let (reference, _) = run_checkpointed(m.as_ref(), &fd, &full, &dir_a, false);
            let reference = reference.expect("reference compressed run succeeds");

            let (partial_result, _) = run_checkpointed(m.as_ref(), &fd, &partial, &dir_b, false);
            partial_result.expect("partial compressed run succeeds");
            let (resumed, _) = run_checkpointed(m.as_ref(), &fd, &full, &dir_b, true);
            let resumed = resumed.expect("resumed compressed run succeeds");

            assert_eq!(
                reference,
                resumed,
                "{} ({}): compressed resume diverged",
                m.name(),
                spec
            );
            let last_a = std::fs::read(dir_a.join(generation_file(4))).expect("final gen in dir_a");
            let last_b = std::fs::read(dir_b.join(generation_file(4))).expect("final gen in dir_b");
            assert_eq!(
                last_a,
                last_b,
                "{} ({}): final checkpoint bytes (incl. residuals) differ",
                m.name(),
                spec
            );
            let _ = std::fs::remove_dir_all(&dir_a);
            let _ = std::fs::remove_dir_all(&dir_b);
        }
    }
}
