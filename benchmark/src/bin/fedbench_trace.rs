//! `fedbench-trace`: the per-layer side of the benchmark.
//!
//! Rebuilds a workload's dataset and config from the same argv the CLI
//! gets, then replays the federation in Algorithm-1 order by calling only
//! public functions of the crates (the *measured surface*, listed in
//! README.md), with an in-memory span around each call. The replay must
//! reproduce the CLI's `final_acc`, `num_clusters` and `total_mb` bit for
//! bit: that is the proof that the spans cover the same work. Layer
//! microbenchmarks over the workload's own shapes follow the replay.
//!
//! The last line of stdout is one JSON object: every per-layer metric this
//! binary measures (`null` where the workload bypasses the layer) plus
//! `replay_phases_s`, which `fedbench` needs for `fl.untraced_s`.

use fedbench::parse;
use fedbench::spans::{self, Span, Tracer};
use fedbench::workloads::{self, Kind, Workload, PER_LAYER};
use fedclust::clustering::{cluster_clients, ClusteringOutcome};
use fedclust::proximity::{collect_partial_weights_for, proximity_matrix};
use fedclust::{FedClust, SavedFederation};
use fedclust_cli::{build_config, build_dataset, Args, Command};
use fedclust_cluster::hac::agglomerative;
use fedclust_cluster::ProximityMatrix;
use fedclust_data::FederatedDataset;
use fedclust_fl::checkpoint::load_latest;
use fedclust_fl::codec::{decode, encode_for_upload};
use fedclust_fl::engine::{
    average_accuracy, evaluate_clients, init_model, sample_clients, train_sampled,
    weighted_average, ClientUpdate,
};
use fedclust_fl::{
    BaseCodec, Checkpoint, Checkpointer, FlConfig, FlMethod, MethodState, RoundRecord, Transport,
};
use fedclust_nn::loss::cross_entropy;
use fedclust_nn::{Model, Sgd};
use fedclust_proto::{decode_frame_prefix, Msg, PushBody};
use fedclust_tensor::conv::{col2im_batch_into, im2col_batch_into, Conv2dGeom};
use fedclust_tensor::matmul::{gemm_nn, gemm_nt, gemm_tn};
use fedclust_tensor::rng::{derive, streams};
use rayon::prelude::*;
use std::collections::BTreeMap;
use std::fs::{self, File};
use std::hint::black_box;
use std::io::BufWriter;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// Where and when the replay checkpoints, crashes and resumes.
struct CkptPlan {
    dir: PathBuf,
    every: usize,
    keep: usize,
    crash_after: usize,
}

impl Drop for CkptPlan {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.dir);
    }
}

/// What a replay produced: the numbers the CLI prints, the counts, and
/// the artefacts the layer microbenchmarks reuse.
struct Outcome {
    final_acc: f64,
    total_mb: f64,
    num_clusters: usize,
    client_jobs: u64,
    evals: u64,
    matrix: Option<ProximityMatrix>,
    last_checkpoint: Option<Checkpoint>,
}

/// The federation's communication and bookkeeping state, shared by both
/// methods' round loops.
struct Federation<'a> {
    fd: &'a FederatedDataset,
    cfg: &'a FlConfig,
    template: Model,
    transport: Transport,
    history: Vec<RoundRecord>,
    client_jobs: u64,
    evals: u64,
}

impl<'a> Federation<'a> {
    fn new(t: &mut Tracer, fd: &'a FederatedDataset, cfg: &'a FlConfig) -> Self {
        Federation {
            fd,
            cfg,
            template: t.call("fl.init_model", || init_model(fd, cfg)),
            transport: t.call("fl.transport_new", || Transport::new(cfg)),
            history: Vec::new(),
            client_jobs: 0,
            evals: 0,
        }
    }

    /// `engine::train_round` from outside: broadcast, train whoever was
    /// reached, push the updates through the uplink.
    fn train_round(
        &mut self,
        t: &mut Tracer,
        start: &[f32],
        sampled: &[usize],
        round: usize,
    ) -> Vec<ClientUpdate> {
        let reached = t.call("fl.broadcast", || {
            self.transport.broadcast(round, sampled, start.len())
        });
        self.client_jobs += reached.len() as u64;
        let updates = t.call("fl.train", || {
            train_sampled(
                self.fd,
                self.cfg,
                &self.template,
                start,
                &reached,
                round,
                None,
            )
        });
        t.call("fl.receive", || {
            self.transport
                .receive(round, updates, Some(start), Some(start))
        })
    }

    fn evaluate<'s>(
        &mut self,
        t: &mut Tracer,
        state_of: impl Fn(usize) -> &'s [f32] + Sync,
    ) -> Vec<f32> {
        self.evals += 1;
        t.call("fl.evaluate", || {
            evaluate_clients(self.fd, &self.template, state_of)
        })
    }

    fn record(&mut self, round: usize, per_client: &[f32]) {
        self.history.push(RoundRecord {
            round: round + 1,
            avg_acc: average_accuracy(per_client),
            cum_mb: self.transport.meter().total_mb(),
        });
    }

    fn finish(
        self,
        per_client: &[f32],
        num_clusters: usize,
        matrix: Option<ProximityMatrix>,
        last_checkpoint: Option<Checkpoint>,
    ) -> Outcome {
        Outcome {
            final_acc: average_accuracy(per_client),
            total_mb: self.transport.meter().total_mb(),
            num_clusters,
            client_jobs: self.client_jobs,
            evals: self.evals,
            matrix,
            last_checkpoint,
        }
    }
}

fn aggregate(t: &mut Tracer, updates: &[ClientUpdate]) -> Vec<f32> {
    let items: Vec<(&[f32], f32)> = updates
        .iter()
        .map(|u| (u.state.as_slice(), u.weight))
        .collect();
    t.call("fl.aggregate", || weighted_average(&items))
}

/// `methods::global::run_global` for plain FedAvg.
fn replay_fedavg(t: &mut Tracer, fd: &FederatedDataset, cfg: &FlConfig) -> Outcome {
    let mut f = Federation::new(t, fd, cfg);
    let mut global = t.call("nn.state_vec", || f.template.state_vec());
    for round in 0..cfg.rounds {
        t.set_round(round);
        let sampled = t.call("fl.sample", || sample_clients(fd.num_clients(), cfg, round));
        let updates = f.train_round(t, &global, &sampled, round);
        // No workload injects faults, so every round has survivors.
        global = aggregate(t, &updates);
        if cfg.should_eval(round) {
            let per_client = f.evaluate(t, |_| &global[..]);
            f.record(round, &per_client);
        }
    }
    let per_client = f.evaluate(t, |_| &global[..]);
    f.finish(&per_client, 1, None, None)
}

/// The server state FedClust carries from round to round.
struct Clusters {
    init_state: Vec<f32>,
    outcome: ClusteringOutcome,
    representatives: Vec<Vec<f32>>,
    states: Vec<Vec<f32>>,
}

/// Build the checkpoint `FedClust::run_detailed_resumable` builds, and
/// hand it to the checkpointer.
fn snapshot_and_save(
    t: &mut Tracer,
    ckpt: &mut Checkpointer,
    f: &Federation,
    c: &Clusters,
    next_round: usize,
) -> Checkpoint {
    let federation_json = t.call("fl.ckpt.snapshot", || {
        SavedFederation {
            model_spec: f.cfg.model,
            geometry: (f.fd.channels, f.fd.height, f.fd.width, f.fd.num_classes),
            init_state: c.init_state.clone(),
            labels: c.outcome.labels.clone(),
            cluster_states: c.states.clone(),
            representatives: c.representatives.clone(),
            outcome: c.outcome.clone(),
        }
        .to_json()
    });
    let cp = Checkpoint {
        method: FedClust::default().name().to_string(),
        seed: f.cfg.seed,
        next_round,
        meter: f.transport.meter().clone(),
        telemetry: f.transport.telemetry(),
        history: f.history.clone(),
        state: MethodState::FedClust { federation_json },
        residuals: f.transport.codec_residuals(),
    };
    t.call("fl.ckpt.save", || ckpt.save_now(&cp))
        .expect("checkpoint write failed");
    cp
}

fn open_checkpointer(plan: Option<&CkptPlan>) -> Checkpointer {
    match plan {
        Some(p) => Checkpointer::new(&p.dir).every(p.every).keep(p.keep),
        None => Checkpointer::disabled(),
    }
}

/// `FedClust::run_detailed_resumable`, including (with a plan) the crash
/// after `crash_after` and the resume from the newest generation.
fn replay_fedclust(
    t: &mut Tracer,
    fd: &FederatedDataset,
    cfg: &FlConfig,
    plan: Option<&CkptPlan>,
) -> Outcome {
    let method = FedClust::default();
    let n = fd.num_clients();
    let mut f = Federation::new(t, fd, cfg);
    let state_len = f.template.state_len();
    let init_state = t.call("nn.state_vec", || f.template.state_vec());
    let mut ckpt = open_checkpointer(plan);

    // Round 0 (Algorithm 1, lines 2-7): one-shot clustering.
    t.set_round(0);
    let everyone: Vec<usize> = (0..n).collect();
    let reached = t.call("fl.broadcast", || {
        f.transport.broadcast(0, &everyone, state_len)
    });
    f.client_jobs += reached.len() as u64;
    let collected = t.call("core.warmup", || {
        collect_partial_weights_for(
            fd,
            cfg,
            &f.template,
            &init_state,
            method.warmup_epochs,
            method.selection,
            &reached,
        )
    });
    // The method pushes every partial through `uplink` + `screen`, which
    // is what `receive` does to an update's state.
    let init_partial = method.selection.extract(&f.template);
    let uploads: Vec<ClientUpdate> = collected
        .into_iter()
        .map(|(client, state)| ClientUpdate {
            client,
            state,
            weight: 0.0,
            steps: 0,
        })
        .collect();
    let kept = t.call("fl.receive", || {
        f.transport
            .receive(0, uploads, Some(&init_partial), Some(&init_partial))
    });
    assert_eq!(kept.len(), n, "no workload injects faults");
    let partials: Vec<Vec<f32>> = kept.into_iter().map(|u| u.state).collect();
    let matrix = t.call("core.proximity", || {
        proximity_matrix(&partials, method.metric)
    });
    let outcome = t.call("core.cluster", || {
        cluster_clients(&matrix, method.linkage, method.lambda)
    });
    let k = outcome.num_clusters.max(1);
    let representatives: Vec<Vec<f32>> = t.call("core.representatives", || {
        (0..k)
            .map(|ci| {
                let members: Vec<(&[f32], f32)> = partials
                    .iter()
                    .zip(&outcome.labels)
                    .filter(|(_, &l)| l == ci)
                    .map(|(p, _)| (p.as_slice(), 1.0))
                    .collect();
                weighted_average(&members)
            })
            .collect()
    });
    let states = t.call("core.alloc_states", || vec![init_state.clone(); k]);
    let mut c = Clusters {
        init_state,
        outcome,
        representatives,
        states,
    };
    // The method snapshots the clustering right away — and builds the
    // snapshot whether or not a checkpoint directory was given.
    let mut last = snapshot_and_save(t, &mut ckpt, &f, &c, 0);

    // Rounds 1..T (lines 9-14): FedAvg inside each cluster.
    let mut round = 0;
    while round < cfg.rounds {
        t.set_round(round + 1);
        let sampled = t.call("fl.sample", || sample_clients(n, cfg, round + 1));
        for ci in 0..k {
            let members: Vec<usize> = sampled
                .iter()
                .copied()
                .filter(|&client| c.outcome.labels[client] == ci)
                .collect();
            if members.is_empty() {
                continue;
            }
            let updates = f.train_round(t, &c.states[ci], &members, round + 1);
            c.states[ci] = aggregate(t, &updates);
        }
        if cfg.should_eval(round) {
            let per_client = f.evaluate(t, |cl| c.states[c.outcome.labels[cl]].as_slice());
            f.record(round, &per_client);
        }
        let Some(plan) = plan else {
            round += 1;
            continue;
        };
        if (round + 1) % plan.every == 0 {
            last = snapshot_and_save(t, &mut ckpt, &f, &c, round + 1);
        }
        if round == plan.crash_after {
            // The first process dies here; the second starts from what is
            // on disk and nothing else.
            let (cp, _) = t
                .call("fl.ckpt.load", || load_latest(&plan.dir))
                .expect("checkpoint directory unreadable");
            let cp = cp.expect("no valid generation to resume from");
            let MethodState::FedClust { federation_json } = cp.state else {
                panic!("resumed from another method's checkpoint");
            };
            let saved = t
                .call("fl.ckpt.restore", || {
                    SavedFederation::from_json(&federation_json)
                })
                .expect("snapshot does not parse");
            c.outcome = saved.outcome;
            c.representatives = saved.representatives;
            c.states = saved.cluster_states;
            f.history = cp.history;
            f.transport = Transport::new(cfg);
            f.transport
                .restore_comm_state(cp.meter, cp.telemetry, cp.residuals);
            ckpt = open_checkpointer(Some(plan));
            round = cp.next_round;
        } else {
            round += 1;
        }
    }
    let per_client = f.evaluate(t, |cl| c.states[c.outcome.labels[cl]].as_slice());
    f.finish(&per_client, k, Some(matrix), Some(last))
}

fn replay(
    t: &mut Tracer,
    method: &str,
    fd: &FederatedDataset,
    cfg: &FlConfig,
    plan: Option<&CkptPlan>,
) -> Outcome {
    if let Some(p) = plan {
        let _ = fs::remove_dir_all(&p.dir);
    }
    match method {
        "fedavg" => replay_fedavg(t, fd, cfg),
        "fedclust" => replay_fedclust(t, fd, cfg, plan),
        other => panic!("the replay knows fedavg and fedclust, not {}", other),
    }
}

/// `engine::local_train` + `Model::train_step` from outside, one call at
/// a time, sequentially. Returns each client's trained state.
fn train_stepwise(
    t: &mut Tracer,
    fd: &FederatedDataset,
    cfg: &FlConfig,
    template: &Model,
    start: &[f32],
    clients: &[usize],
    round: usize,
) -> Vec<Vec<f32>> {
    let mut trained = Vec::with_capacity(clients.len());
    for &client in clients {
        let mut model = t.client_call("nn.clone", client, || template.clone());
        t.call("nn.set_state_vec", || model.set_state_vec(start));
        let mut opt = t.call("nn.sgd_new", || Sgd::new(cfg.sgd()));
        let mut rng = derive(
            cfg.seed,
            &[streams::LOCAL_TRAIN, client as u64, round as u64],
        );
        let data = &fd.clients[client].train;
        for _ in 0..cfg.local_epochs {
            let batches = t.call("data.minibatch_indices", || {
                data.minibatch_indices(cfg.batch_size, &mut rng)
            });
            for indices in batches {
                let (x, y) = t.call("data.batch", || data.batch(&indices));
                let logits = t.call("nn.forward", || model.forward(x, true));
                let (_, grad) = t.call("nn.loss", || cross_entropy(&logits, &y));
                t.call("nn.backward", || model.backward(grad));
                t.call("nn.optim", || {
                    let mut params = model.params_mut();
                    opt.step(&mut params);
                });
            }
        }
        trained.push(t.call("nn.state_vec", || model.state_vec()));
    }
    trained
}

/// One layer of the workload's model, as far as GEMM and im2col see it.
enum Op {
    Conv { geom: Conv2dGeom, out_c: usize },
    Dense { inp: usize, out: usize },
}

/// The conv geometries and dense widths of `nn::models::{lenet5, resnet9}`
/// (the model keeps its layers private). `params` is the parameter count
/// they imply; the caller checks it against the real model so that a
/// changed architecture fails here instead of timing stale shapes.
fn model_ops(arch: &str, c: usize, h: usize, w: usize, classes: usize) -> (Vec<Op>, usize) {
    let conv = |in_c: usize, out_c: usize, h: usize, w: usize, pad: usize| Op::Conv {
        geom: Conv2dGeom {
            in_channels: in_c,
            in_h: h,
            in_w: w,
            k_h: 3,
            k_w: 3,
            stride: 1,
            pad,
        },
        out_c,
    };
    let (ops, batch_norm) = match arch {
        "lenet5" => {
            let (h1, w1) = ((h - 2) / 2, (w - 2) / 2);
            let (h2, w2) = ((h1 - 2) / 2, (w1 - 2) / 2);
            let ops = vec![
                conv(c, 8, h, w, 0),
                conv(8, 16, h1, w1, 0),
                Op::Dense {
                    inp: 16 * h2 * w2,
                    out: 48,
                },
                Op::Dense { inp: 48, out: 24 },
                Op::Dense {
                    inp: 24,
                    out: classes,
                },
            ];
            (ops, false)
        }
        "resnet9" => {
            let (h1, w1, h2, w2) = (h / 2, w / 2, h / 4, w / 4);
            let ops = vec![
                conv(c, 8, h, w, 1),
                conv(8, 16, h, w, 1),
                conv(16, 16, h1, w1, 1),
                conv(16, 16, h1, w1, 1),
                conv(16, 32, h1, w1, 1),
                conv(32, 32, h2, w2, 1),
                conv(32, 32, h2, w2, 1),
                Op::Dense {
                    inp: 32,
                    out: classes,
                },
            ];
            (ops, true)
        }
        other => panic!("no shape table for architecture {}", other),
    };
    let params = ops
        .iter()
        .map(|op| match op {
            Op::Conv { geom, out_c } => {
                out_c * geom.col_rows() + out_c + if batch_norm { 2 * out_c } else { 0 }
            }
            Op::Dense { inp, out } => inp * out + out,
        })
        .sum();
    (ops, params)
}

/// Seconds per pass of `f`, repeated until ~0.15 s have been measured.
fn time_passes(mut f: impl FnMut()) -> f64 {
    f(); // touch the buffers once
    let start = Instant::now();
    let mut passes = 0u32;
    while passes < 3 || start.elapsed().as_secs_f64() < 0.15 {
        f();
        passes += 1;
    }
    start.elapsed().as_secs_f64() / passes as f64
}

/// GEMM throughput over every GEMM one training step of the model issues
/// (forward, weight gradient, input gradient) at the workload's batch.
fn gemm_gflops(ops: &[Op], batch: usize) -> f64 {
    // (m, k, n, kernel) exactly as `Conv2d` and `Dense` call them.
    type Gemm = fn(usize, usize, usize, &[f32], &[f32], &mut [f32]);
    let mut calls: Vec<(usize, usize, usize, Gemm)> = Vec::new();
    for op in ops {
        match op {
            Op::Conv { geom, out_c } => {
                let (rows, n) = (geom.col_rows(), batch * geom.col_cols());
                calls.push((*out_c, rows, n, gemm_nn));
                calls.push((*out_c, n, rows, gemm_nt));
                calls.push((rows, *out_c, n, gemm_tn));
            }
            Op::Dense { inp, out } => {
                calls.push((batch, *inp, *out, gemm_nt));
                calls.push((*out, batch, *inp, gemm_tn));
                calls.push((batch, *out, *inp, gemm_nn));
            }
        }
    }
    let flops: f64 = calls
        .iter()
        .map(|(m, k, n, _)| 2.0 * (m * k * n) as f64)
        .sum();
    let mut buffers: Vec<(Vec<f32>, Vec<f32>, Vec<f32>)> = calls
        .iter()
        .map(|(m, k, n, _)| (vec![0.5; m * k], vec![0.25; k * n], vec![0.0; m * n]))
        .collect();
    let per_pass = time_passes(|| {
        for ((m, k, n, kernel), (a, b, out)) in calls.iter().zip(&mut buffers) {
            kernel(*m, *k, *n, black_box(a), black_box(b), out);
            black_box(&out);
        }
    });
    flops / per_pass / 1e9
}

/// Bytes im2col and col2im read and write at the model's conv geometries,
/// per second.
fn im2col_gbps(ops: &[Op], batch: usize) -> f64 {
    let mut bytes = 0.0;
    let mut buffers: Vec<(Conv2dGeom, Vec<f32>, Vec<f32>)> = Vec::new();
    for op in ops {
        if let Op::Conv { geom, .. } = op {
            let image = batch * geom.in_channels * geom.in_h * geom.in_w;
            let cols = geom.col_rows() * batch * geom.col_cols();
            // Each direction reads one side and writes the other.
            bytes += 2.0 * 4.0 * (image + cols) as f64;
            buffers.push((*geom, vec![0.5; image], vec![0.0; cols]));
        }
    }
    let per_pass = time_passes(|| {
        for (geom, image, cols) in &mut buffers {
            im2col_batch_into(black_box(image), batch, geom, cols);
            col2im_batch_into(black_box(cols), batch, geom, image);
            black_box(&image);
        }
    });
    bytes / per_pass / 1e9
}

fn seconds(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// Time `f` once.
fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64(), out)
}

struct Opts {
    workload: &'static Workload,
    seed: u64,
    expect: Option<PathBuf>,
    out_dir: PathBuf,
    smoke: bool,
}

fn parse_opts() -> Result<Opts, String> {
    let mut workload = None;
    let mut seed = 42;
    let mut expect = None;
    let mut out_dir = PathBuf::from("benchmark/out");
    let mut smoke = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{} needs a value", flag))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    workloads::find(&value).ok_or_else(|| format!("unknown workload {}", value))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {}", value))?,
            "--expect" => expect = Some(PathBuf::from(value)),
            "--out-dir" => out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {}", flag)),
        }
    }
    Ok(Opts {
        workload: workload.ok_or("usage: fedbench-trace --workload <name> [--seed N] [--expect <cli.json>] [--out-dir DIR] [--smoke]")?,
        seed,
        expect,
        out_dir,
        smoke,
    })
}

fn write_spans(spans: &[Span], path: &Path) -> Result<(), String> {
    let file =
        File::create(path).map_err(|e| format!("cannot create {}: {}", path.display(), e))?;
    let mut w = BufWriter::new(file);
    spans::write_jsonl(spans, &mut w)
        .and_then(|()| std::io::Write::flush(&mut w))
        .map_err(|e| format!("cannot write {}: {}", path.display(), e))
}

fn run() -> Result<(), String> {
    let opts = parse_opts()?;
    let w = opts.workload;
    fs::create_dir_all(&opts.out_dir).map_err(|e| e.to_string())?;

    // The same argv the CLI gets.
    let mut argv: Vec<String> = ["run", "--seed", &opts.seed.to_string()]
        .map(String::from)
        .to_vec();
    argv.extend(w.flag_words(opts.smoke));
    let args = Args::parse(&argv).map_err(|e| e.to_string())?;
    let Command::Run { method } = &args.command else {
        return Err("workload argv is not a `run`".into());
    };
    let method = method.to_ascii_lowercase();
    let threads = args
        .effective_threads()
        .map_err(|e| e.to_string())?
        .unwrap_or(1);
    rayon::set_num_threads(threads);
    let plan = (w.kind == Kind::CkptResume).then(|| CkptPlan {
        dir: opts
            .out_dir
            .join(format!("trace_ckpt_{}", std::process::id())),
        every: args.checkpoint_every,
        keep: args.keep,
        crash_after: w.crash_after(opts.smoke),
    });

    let mut t = Tracer::new();
    let fd = t.call("data.build", || build_dataset(&args))?;
    let cfg = build_config(&args);

    // The replay.
    let replay_span = t.begin("replay");
    let out = replay(&mut t, &method, &fd, &cfg, plan.as_ref());
    t.end();
    let replay_spans = t.spans().len() - replay_span - 1;
    let ckpt_bytes = plan.as_ref().map(|p| {
        fs::read_dir(&p.dir)
            .into_iter()
            .flatten()
            .filter_map(Result::ok)
            .filter_map(|f| f.metadata().ok())
            .map(|m| m.len())
            .max()
            .unwrap_or(0)
    });
    if let Some(path) = &opts.expect {
        let cli = fs::read_to_string(path).map_err(|e| format!("{}: {}", path.display(), e))?;
        let field = |key: &str| {
            parse::json_number(&cli, key).ok_or_else(|| format!("no {} in {}", key, path.display()))
        };
        let same = field("final_acc")?.to_bits() == out.final_acc.to_bits()
            && field("total_mb")?.to_bits() == out.total_mb.to_bits()
            && field("num_clusters")? == out.num_clusters as f64;
        if !same {
            return Err(format!(
                "the replay does not reproduce the CLI: final_acc {} total_mb {} num_clusters {} against {}",
                out.final_acc,
                out.total_mb,
                out.num_clusters,
                cli.split_whitespace().collect::<Vec<_>>().join(" ").chars().take(160).collect::<String>()
            ));
        }
    }

    // Layer microbenchmarks on the workload's own shapes and data.
    t.begin("micro");
    let template = init_model(&fd, &cfg);
    let init_state = template.state_vec();
    let sampled = sample_clients(fd.num_clients(), &cfg, 1);

    rayon::set_num_threads(1);
    let (train_t1_s, at_one) =
        timed(|| train_sampled(&fd, &cfg, &template, &init_state, &sampled, 1, None));
    rayon::set_num_threads(2);
    let (train_t2_s, at_two) =
        timed(|| train_sampled(&fd, &cfg, &template, &init_state, &sampled, 1, None));
    let dispatch_us = 1e6
        * time_passes(|| {
            (0..64usize).into_par_iter().for_each(|i| {
                black_box(i);
            })
        });
    rayon::set_num_threads(threads);

    let stepwise = train_stepwise(&mut t, &fd, &cfg, &template, &init_state, &sampled, 1);
    for ((one, two), stepped) in at_one.iter().zip(&at_two).zip(&stepwise) {
        if one.state != two.state || one.state != *stepped {
            return Err(format!(
                "client {}: training at one thread, at two threads and step by step disagree",
                one.client
            ));
        }
    }

    t.begin("nn.infer_all");
    for client in &fd.clients {
        if client.test.is_empty() {
            continue;
        }
        let mut model = template.clone();
        model.set_state_vec(&init_state);
        let indices: Vec<usize> = (0..client.test.len()).collect();
        let (x, y) = client.test.batch(&indices);
        t.call("nn.infer", || model.evaluate(x, &y));
    }
    t.end();

    let replica_s = time_passes(|| {
        let mut model = template.clone();
        model.set_state_vec(&init_state);
        black_box(Sgd::new(cfg.sgd()));
        black_box(model.state_vec());
    });

    let (ops, params) = model_ops(
        template.architecture(),
        fd.channels,
        fd.height,
        fd.width,
        fd.num_classes,
    );
    if params != template.num_params() {
        return Err(format!(
            "the shape table implies {} parameters, the {} model has {}: update model_ops",
            params,
            template.architecture(),
            template.num_params()
        ));
    }
    let gflops = gemm_gflops(&ops, cfg.batch_size);
    let gbps = im2col_gbps(&ops, cfg.batch_size);

    let hac = out.matrix.as_ref().map(|m| {
        let method = FedClust::default();
        let (s, dendrogram) = timed(|| agglomerative(m, method.linkage));
        (s, dendrogram.merges().len(), m.len())
    });

    // Codec: this round's real updates through the uplink encoder and the
    // server's decoder.
    let codec = (!cfg.codec.is_none()).then(|| {
        let (mut encode_s, mut decode_s, mut wire, mut raw) = (0.0, 0.0, 0usize, 0usize);
        for u in &at_one {
            let residual = matches!(cfg.codec.base, BaseCodec::TopK(_)).then(Vec::new);
            let (s, (enc, _)) = timed(|| {
                encode_for_upload(
                    cfg.codec,
                    cfg.seed,
                    1,
                    u.client,
                    &u.state,
                    Some(&init_state),
                    residual,
                )
            });
            encode_s += s;
            let (s, decoded) = timed(|| decode(&enc.wire, Some(&init_state)));
            decode_s += s;
            assert_eq!(
                decoded.as_deref(),
                Ok(enc.decoded.as_slice()),
                "decoder disagrees with the encoder's reconstruction"
            );
            wire += enc.wire.len();
            raw += 4 * u.state.len();
        }
        (encode_s, decode_s, wire, raw)
    });

    // Checkpoint image: encode the last checkpoint the replay wrote.
    let ckpt_encode = out
        .last_checkpoint
        .as_ref()
        .filter(|_| plan.is_some())
        .map(|cp| {
            let (s, bytes) = timed(|| cp.encode());
            let MethodState::FedClust { federation_json } = &cp.state else {
                unreachable!("the replay only checkpoints FedClust");
            };
            let saved = SavedFederation::from_json(federation_json).expect("own snapshot parses");
            let scalars = saved.init_state.len()
                + saved.cluster_states.iter().map(Vec::len).sum::<usize>()
                + saved.representatives.iter().map(Vec::len).sum::<usize>()
                + cp.residuals.iter().map(|(_, r)| r.len()).sum::<usize>();
            (s, bytes.len(), scalars)
        });

    // Frames: a push carrying one real update, a thousand times.
    let proto = (w.kind == Kind::NetFleet).then(|| {
        let u = &at_one[0];
        let msg = Msg::Push {
            mode: 0,
            round: 1,
            client: u.client as u32,
            steps: u.steps as u32,
            weight: u.weight,
            body: PushBody::Raw(u.state.clone()),
        };
        let (encode_s, frame) = timed(|| {
            let mut frame = Vec::new();
            for _ in 0..1000 {
                frame = black_box(&msg).encode();
            }
            frame
        });
        let (decode_s, decoded) = timed(|| {
            let mut last = None;
            for _ in 0..1000 {
                let (f, _) = decode_frame_prefix(black_box(&frame)).expect("own frame decodes");
                last = Some(Msg::decode_frame(&f).expect("own frame decodes"));
            }
            last
        });
        assert_eq!(
            decoded.as_ref(),
            Some(&msg),
            "frame round trip changed the message"
        );
        (encode_s, decode_s, frame.len())
    });
    t.end();

    // What recording cost the replay: its span count times the measured
    // cost of one empty span.
    let span_cost_s = {
        let mut probe = Tracer::new();
        timed(|| (0..200_000).for_each(|_| probe.call("probe", || ()))).0 / 200_000.0
    };

    // Fold the spans into the metrics.
    let spans = t.spans();
    write_spans(spans, &opts.out_dir.join(format!("trace_{}.jsonl", w.name)))?;
    let totals = spans::totals_by_name(spans);
    let total_s = |name: &str| totals.get(name).map_or(0.0, |x| seconds(x.total_ns));
    let self_ns = spans::self_times_ns(spans);
    let replay_s = seconds(spans[replay_span].duration_ns());
    let phases_s = replay_s - seconds(self_ns[replay_span]);
    let is_fedclust = method == "fedclust";
    let when = |cond: bool, v: f64| cond.then_some(v);

    let mut m: BTreeMap<&str, Option<f64>> = BTreeMap::new();
    m.insert("data.build_s", Some(total_s("data.build")));
    m.insert(
        "data.batch_s",
        Some(total_s("data.batch") + total_s("data.minibatch_indices")),
    );
    m.insert("tensor.gemm_gflops", Some(gflops));
    m.insert("tensor.im2col_gbps", Some(gbps));
    m.insert("nn.forward_s", Some(total_s("nn.forward")));
    m.insert("nn.loss_s", Some(total_s("nn.loss")));
    m.insert("nn.backward_s", Some(total_s("nn.backward")));
    m.insert("nn.optim_s", Some(total_s("nn.optim")));
    m.insert("nn.infer_s", Some(total_s("nn.infer")));
    m.insert("nn.replica_s", Some(replica_s * out.client_jobs as f64));
    m.insert("nn.state_len", Some(init_state.len() as f64));
    m.insert("rayon.train_t1_s", Some(train_t1_s));
    m.insert("rayon.train_t2_s", Some(train_t2_s));
    m.insert("rayon.speedup_t2", Some(train_t1_s / train_t2_s));
    m.insert("rayon.dispatch_us", Some(dispatch_us));
    m.insert("cluster.hac_s", hac.map(|h| h.0));
    m.insert("cluster.hac_merges", hac.map(|h| h.1 as f64));
    m.insert("core.warmup_s", when(is_fedclust, total_s("core.warmup")));
    m.insert(
        "core.proximity_s",
        when(is_fedclust, total_s("core.proximity")),
    );
    m.insert(
        "core.proximity_pairs",
        hac.map(|h| (h.2 * (h.2 - 1) / 2) as f64),
    );
    m.insert(
        "core.cut_s",
        hac.map(|h| (total_s("core.cluster") - h.0).max(0.0)),
    );
    m.insert(
        "core.num_clusters",
        when(is_fedclust, out.num_clusters as f64),
    );
    m.insert("fl.sample_s", Some(total_s("fl.sample")));
    m.insert("fl.train_s", Some(total_s("fl.train")));
    m.insert("fl.aggregate_s", Some(total_s("fl.aggregate")));
    m.insert("fl.evaluate_s", Some(total_s("fl.evaluate")));
    m.insert(
        "fl.comm_s",
        Some(total_s("fl.broadcast") + total_s("fl.receive")),
    );
    m.insert("fl.client_jobs", Some(out.client_jobs as f64));
    m.insert("fl.evals", Some(out.evals as f64));
    m.insert("fl.codec.encode_s", codec.map(|c| c.0));
    m.insert("fl.codec.decode_s", codec.map(|c| c.1));
    m.insert("fl.codec.wire_bytes", codec.map(|c| c.2 as f64));
    m.insert("fl.codec.ratio", codec.map(|c| c.2 as f64 / c.3 as f64));
    m.insert(
        "fl.ckpt.snapshot_s",
        when(is_fedclust, total_s("fl.ckpt.snapshot")),
    );
    m.insert("fl.ckpt.encode_s", ckpt_encode.map(|c| c.0));
    m.insert(
        "fl.ckpt.save_s",
        when(plan.is_some(), total_s("fl.ckpt.save")),
    );
    m.insert(
        "fl.ckpt.load_s",
        when(
            plan.is_some(),
            total_s("fl.ckpt.load") + total_s("fl.ckpt.restore"),
        ),
    );
    m.insert("fl.ckpt.bytes", ckpt_bytes.map(|b| b as f64));
    m.insert(
        "fl.ckpt.inflation",
        ckpt_encode.map(|c| c.1 as f64 / (4 * c.2) as f64),
    );
    m.insert("proto.encode_s", proto.map(|p| p.0));
    m.insert("proto.decode_s", proto.map(|p| p.1));
    m.insert("proto.frame_bytes", proto.map(|p| p.2 as f64));
    m.insert("trace.replay_s", Some(replay_s));
    m.insert(
        "trace.overhead_share",
        Some(replay_spans as f64 * span_cost_s / replay_s),
    );
    m.insert("trace.coverage", Some(phases_s / replay_s));

    println!(
        "replay of {}: final_acc {} total_mb {} num_clusters {} in {:.4} s, {} spans of {:.0} ns each",
        w.name,
        out.final_acc,
        out.total_mb,
        out.num_clusters,
        replay_s,
        replay_spans,
        1e9 * span_cost_s
    );
    let children: BTreeMap<&str, u64> = spans
        .iter()
        .filter(|s| s.parent == Some(replay_span))
        .fold(BTreeMap::new(), |mut acc, s| {
            *acc.entry(s.name).or_default() += s.duration_ns();
            acc
        });
    for (name, ns) in &children {
        println!(
            "  {:<22} {:>9.4} s {:>5.1} %",
            name,
            seconds(*ns),
            100.0 * seconds(*ns) / replay_s
        );
    }
    let mut fields = vec![format!("\"replay_phases_s\":{}", phases_s)];
    for metric in PER_LAYER
        .iter()
        .filter(|metric| !workloads::measured_by_fedbench(metric.name))
    {
        let value = m
            .remove(metric.name)
            .unwrap_or_else(|| panic!("{} is listed but not measured", metric.name));
        let text = value
            .filter(|v| v.is_finite())
            .map_or("null".to_string(), |v| format!("{}", v));
        fields.push(format!("\"{}\":{}", metric.name, text));
    }
    assert!(m.is_empty(), "measured but not listed: {:?}", m.keys());
    println!("{{{}}}", fields.join(","));
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("fedbench-trace: {}", e);
            ExitCode::from(1)
        }
    }
}
