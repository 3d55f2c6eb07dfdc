//! Cross-thread-count equivalence: the thread count must be invisible.
//!
//! The parallel engine's contract (DESIGN.md §6) is that a run's every
//! observable — `RunResult` history, CommMeter totals, fault telemetry,
//! and the final checkpoint bytes — is **bit-identical** at any thread
//! count, because all randomness derives from `(seed, round, client)`
//! streams and every parallel reduction collects to index-ordered slots
//! before folding. These tests pin that contract for all 11 resumable
//! methods plus the Local baseline, including under an active fault plan
//! and across a kill-and-resume that switches thread counts, so the pool
//! cannot silently break the PR 2 (fault injection) or PR 4
//! (checkpointing) invariants.

use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};

use fedclust_repro::data::{DatasetProfile, FederatedDataset, Partition};
use fedclust_repro::fedclust::FedClust;
use fedclust_repro::fl::checkpoint::generation_file;
use fedclust_repro::fl::methods::{
    Cfl, FedAvg, FedDyn, FedNova, FedProx, Ifca, LgFedAvg, LocalOnly, Pacfl, PerFedAvg, Scaffold,
};
use fedclust_repro::fl::{Checkpointer, FaultPlan, FlConfig, FlMethod, RunResult};
use fedclust_repro::nn::models::ModelSpec;

/// Serialise tests in this binary: the thread count is process-global, so
/// interleaved tests would blur which count a run used (results would
/// still match — that is the whole point — but failure diagnostics
/// wouldn't name the offending count).
fn config_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    match LOCK.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn fd(seed: u64) -> FederatedDataset {
    FederatedDataset::build(
        DatasetProfile::FmnistLike,
        Partition::LabelSkew { fraction: 0.3 },
        &fedclust_repro::data::federated::FederatedConfig {
            num_clients: 6,
            samples_per_class: 12,
            train_fraction: 0.8,
            seed,
        },
    )
}

fn cfg(seed: u64, rounds: usize) -> FlConfig {
    let mut cfg = FlConfig::tiny(seed);
    cfg.rounds = rounds;
    cfg
}

/// The 11 methods with resumable server state, plus FedClust's paper rig.
fn resumable_methods() -> Vec<Box<dyn FlMethod>> {
    vec![
        Box::new(FedAvg),
        Box::new(FedProx::default()),
        Box::new(FedNova),
        Box::new(LgFedAvg::default()),
        Box::new(PerFedAvg::default()),
        Box::new(Cfl::default()),
        Box::new(Ifca::default()),
        Box::new(Pacfl::default()),
        Box::new(Scaffold::default()),
        Box::new(FedDyn::default()),
        Box::new(FedClust::default()),
    ]
}

/// Everything, for plain-run equivalence (Local has no server state).
fn all_methods() -> Vec<Box<dyn FlMethod>> {
    let mut ms = resumable_methods();
    ms.push(Box::new(LocalOnly));
    ms
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fedclust-threads-{}-{}", tag, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn run_at(threads: usize, m: &dyn FlMethod, fd: &FederatedDataset, cfg: &FlConfig) -> RunResult {
    rayon::set_num_threads(threads);
    let r = m.run(fd, cfg);
    rayon::set_num_threads(1);
    r
}

/// Run with per-round checkpointing and return (result, newest checkpoint
/// file bytes).
fn run_checkpointed_at(
    threads: usize,
    m: &dyn FlMethod,
    fd: &FederatedDataset,
    cfg: &FlConfig,
    dir: &PathBuf,
    resume: bool,
) -> (RunResult, Vec<u8>) {
    rayon::set_num_threads(threads);
    let mut ckpt = Checkpointer::new(dir).keep(8).resume(resume);
    let result = m
        .run_hosted(fd, cfg, &mut ckpt, None)
        .expect("checkpointed run succeeds");
    rayon::set_num_threads(1);
    let newest = dir.join(generation_file(cfg.rounds));
    let bytes = std::fs::read(&newest).expect("final checkpoint generation reads");
    (result, bytes)
}

#[test]
fn every_method_is_bit_identical_across_thread_counts() {
    let _g = config_lock();
    let fd = fd(11);
    let cfg = cfg(11, 2);
    for m in all_methods() {
        let reference = run_at(1, m.as_ref(), &fd, &cfg);
        for threads in [2, 4] {
            let got = run_at(threads, m.as_ref(), &fd, &cfg);
            assert_eq!(
                reference,
                got,
                "{}: RunResult diverged between threads=1 and threads={}",
                m.name(),
                threads
            );
        }
        // Telemetry equality is implied by RunResult equality; assert the
        // interesting fields explicitly so a future RunResult refactor
        // cannot quietly drop them from the comparison.
        assert_eq!(
            reference.total_mb,
            run_at(4, m.as_ref(), &fd, &cfg).total_mb
        );
    }
}

/// `FlConfig::tiny` is an MLP, so the test above never convolves. The
/// pool must stay invisible on the paper's conv models too: LeNet-5 on
/// 16×16 CIFAR-10-like images, and ResNet-9 (batch norm, padded 3×3 at
/// 8×8, 4×4 and 2×2) on 8×8 CIFAR-100-like ones.
#[test]
fn conv_models_are_bit_identical_across_thread_counts() {
    let _g = config_lock();
    for (profile, model) in [
        (DatasetProfile::Cifar10Like, ModelSpec::LeNet5),
        (DatasetProfile::Cifar100Like, ModelSpec::ResNet9),
    ] {
        let fd = FederatedDataset::build(
            profile,
            Partition::LabelSkew { fraction: 0.3 },
            &fedclust_repro::data::federated::FederatedConfig {
                num_clients: 4,
                samples_per_class: 4,
                train_fraction: 0.8,
                seed: 23,
            },
        );
        let mut cfg = cfg(23, 2);
        cfg.model = model;
        for m in [
            Box::new(FedAvg) as Box<dyn FlMethod>,
            Box::new(FedClust::default()),
        ] {
            let reference = run_at(1, m.as_ref(), &fd, &cfg);
            for threads in [2, 4] {
                assert_eq!(
                    reference,
                    run_at(threads, m.as_ref(), &fd, &cfg),
                    "{} on {}: RunResult diverged between threads=1 and threads={}",
                    m.name(),
                    model.tag(),
                    threads
                );
            }
        }
    }
}

#[test]
fn faulty_runs_are_bit_identical_across_thread_counts() {
    let _g = config_lock();
    let fd = fd(13);
    let mut cfg = cfg(13, 3);
    cfg.dropout_rate = 0.2;
    cfg.faults = FaultPlan {
        downlink_loss: 0.2,
        max_downlink_retries: 2,
        uplink_loss: 0.2,
        straggler_rate: 0.3,
        straggler_mean_delay: 0.8,
        round_deadline: 1.0,
        corruption_rate: 0.1,
    };
    for m in [
        Box::new(FedAvg) as Box<dyn FlMethod>,
        Box::new(FedClust::default()),
        Box::new(Scaffold::default()),
    ] {
        let reference = run_at(1, m.as_ref(), &fd, &cfg);
        let parallel = run_at(4, m.as_ref(), &fd, &cfg);
        assert_eq!(
            reference,
            parallel,
            "{}: faulty run diverged across thread counts",
            m.name()
        );
        assert_eq!(
            reference.faults,
            parallel.faults,
            "{}: fault telemetry diverged",
            m.name()
        );
    }
}

#[test]
fn final_checkpoint_bytes_are_identical_across_thread_counts() {
    let _g = config_lock();
    let fd = fd(17);
    let cfg = cfg(17, 2);
    for m in resumable_methods() {
        let name = m.name().to_lowercase();
        let dir1 = tmpdir(&format!("ckpt1-{name}"));
        let dir4 = tmpdir(&format!("ckpt4-{name}"));
        let (r1, bytes1) = run_checkpointed_at(1, m.as_ref(), &fd, &cfg, &dir1, false);
        let (r4, bytes4) = run_checkpointed_at(4, m.as_ref(), &fd, &cfg, &dir4, false);
        assert_eq!(r1, r4, "{}: checkpointed results diverged", m.name());
        assert_eq!(
            bytes1,
            bytes4,
            "{}: final checkpoint bytes diverged across thread counts",
            m.name()
        );
        let _ = std::fs::remove_dir_all(&dir1);
        let _ = std::fs::remove_dir_all(&dir4);
    }
}

#[test]
fn kill_and_resume_across_a_thread_count_switch_is_bit_identical() {
    let _g = config_lock();
    let fd = fd(19);
    let full = cfg(19, 4);
    let partial = cfg(19, 2);
    for m in [
        Box::new(FedAvg) as Box<dyn FlMethod>,
        Box::new(FedClust::default()),
        Box::new(FedDyn::default()),
    ] {
        let name = m.name().to_lowercase();
        let dir_ref = tmpdir(&format!("resume-ref-{name}"));
        let dir_sw = tmpdir(&format!("resume-switch-{name}"));

        // Uninterrupted sequential reference.
        let (reference, ref_bytes) =
            run_checkpointed_at(1, m.as_ref(), &fd, &full, &dir_ref, false);

        // Kill at a round boundary while running parallel, then resume in
        // "a fresh process" at a *different* thread count.
        let (_partial, _) = run_checkpointed_at(4, m.as_ref(), &fd, &partial, &dir_sw, false);
        let (resumed, resumed_bytes) =
            run_checkpointed_at(2, m.as_ref(), &fd, &full, &dir_sw, true);

        assert_eq!(
            reference,
            resumed,
            "{}: resume across thread counts diverged",
            m.name()
        );
        assert_eq!(
            ref_bytes,
            resumed_bytes,
            "{}: final checkpoint bytes diverged after thread-switch resume",
            m.name()
        );
        let _ = std::fs::remove_dir_all(&dir_ref);
        let _ = std::fs::remove_dir_all(&dir_sw);
    }
}

#[test]
fn compressed_runs_are_bit_identical_across_thread_counts() {
    // The codec path adds per-client rng draws (stochastic rounding) and
    // mutable residual state; both key on `(seed, round, client)` and are
    // folded in client-index order, so the thread count must stay
    // invisible under compression too.
    let _g = config_lock();
    let fd = fd(29);
    for spec in ["topk:0.3", "delta+q8+sr"] {
        let mut cfg = cfg(29, 3);
        cfg.codec = fedclust_repro::fl::CodecSpec::parse(spec).expect("codec spec parses");
        for m in [
            Box::new(FedAvg) as Box<dyn FlMethod>,
            Box::new(FedClust::default()),
        ] {
            let name = m.name().to_lowercase();
            let tag = spec.replace([':', '+', '.'], "-");
            let dir1 = tmpdir(&format!("codec1-{tag}-{name}"));
            let dir4 = tmpdir(&format!("codec4-{tag}-{name}"));
            let (r1, bytes1) = run_checkpointed_at(1, m.as_ref(), &fd, &cfg, &dir1, false);
            let (r4, bytes4) = run_checkpointed_at(4, m.as_ref(), &fd, &cfg, &dir4, false);
            assert_eq!(
                r1,
                r4,
                "{} ({}): compressed run diverged across thread counts",
                m.name(),
                spec
            );
            assert_eq!(
                bytes1,
                bytes4,
                "{} ({}): compressed checkpoint bytes diverged",
                m.name(),
                spec
            );
            let _ = std::fs::remove_dir_all(&dir1);
            let _ = std::fs::remove_dir_all(&dir4);
        }
    }
}
