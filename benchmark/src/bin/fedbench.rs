//! `fedbench`: the end-to-end side of the benchmark, and the driver of the
//! per-layer side.
//!
//! Closed loop, one federation at a time. One repetition is one fresh
//! process (or process set): users pay process start and data synthesis on
//! every `fedclust-cli run`, so nothing is pre-warmed. The program under
//! test is seen only through argv, exit codes and what it prints; this
//! binary links none of the repo's crates.
//!
//! `--trace 0` measures the end-to-end metrics untraced. `--trace 1` runs
//! `fedbench-trace` (the in-process replay with spans) and adds the few
//! per-layer metrics that need real processes (`cli.net.*`,
//! `fl.untraced_s`).

use fedbench::parse::{self, NetStats};
use fedbench::stats;
use fedbench::workloads::{self, Kind, Workload, END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use std::fs::{self, File};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

/// A repetition that runs longer than this counts as failed.
const REP_TIMEOUT: Duration = Duration::from_secs(60);
/// Exit code of an injected crash (`--crash-after`).
const CRASH_EXIT: i32 = 86;
/// Fewest repetitions a timing may rest on, and the most a noisy box gets.
const MIN_REPS: usize = 5;
const MAX_REPS: usize = 9;
/// Repetitions behind `fl.untraced_s` and `cli.net.overhead_s`.
const TRACE_REPS: usize = 3;
/// Calibration spread (max ÷ min) above which a set is flagged unsteady.
const STEADY_SPREAD: f64 = 1.10;
/// Accuracy floor on the FedClust training workloads (0.80-0.94 over the
/// seeds tried, against a 0.1 chance level).
const ACC_FLOOR: f64 = 0.4;

struct Opts {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    reps: usize,
    smoke: bool,
    bin_dir: PathBuf,
    out_dir: PathBuf,
}

const USAGE: &str = "usage: fedbench [--workload <name|all>] [--seed N] [--seconds S] [--trace 0|1]
                [--reps N] [--smoke] [--bin-dir DIR] [--out-dir DIR]";

fn parse_opts() -> Result<Opts, String> {
    let mut o = Opts {
        workload: "all".into(),
        seed: 42,
        seconds: 0.0,
        trace: false,
        reps: MIN_REPS,
        smoke: false,
        bin_dir: PathBuf::from("target/release"),
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            o.smoke = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{} needs a value\n{}", flag, USAGE))?;
        let bad = |what: &str| format!("{} {}: {}\n{}", flag, value, what, USAGE);
        match flag.as_str() {
            "--workload" => o.workload = value,
            "--seed" => o.seed = value.parse().map_err(|_| bad("not a seed"))?,
            "--seconds" => o.seconds = value.parse().map_err(|_| bad("not a number"))?,
            "--trace" => {
                o.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                }
            }
            "--reps" => o.reps = value.parse().map_err(|_| bad("not a count"))?,
            "--bin-dir" => o.bin_dir = PathBuf::from(value),
            "--out-dir" => o.out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {}\n{}", flag, USAGE)),
        }
    }
    if o.smoke {
        o.reps = 1;
    } else if o.reps < MIN_REPS || o.reps > MAX_REPS || o.reps.is_multiple_of(2) {
        return Err(format!(
            "--reps must be odd and within {}..={}",
            MIN_REPS, MAX_REPS
        ));
    }
    Ok(o)
}

/// A child process with its output in files, its peak memory sampled
/// while it runs, and no way to outlive this value: dropping it kills and
/// reaps the child, which covers every exit path of the benchmark (the
/// binaries under test start no processes of their own).
struct Proc {
    child: Child,
    started: Instant,
    out: PathBuf,
    err: PathBuf,
    peak_kb: u64,
}

impl Proc {
    fn spawn(bin: &Path, args: &[String], scratch: &Path, tag: &str) -> Result<Proc, String> {
        let out = scratch.join(format!("{}.out", tag));
        let err = scratch.join(format!("{}.err", tag));
        let create =
            |p: &Path| File::create(p).map_err(|e| format!("cannot create {}: {}", p.display(), e));
        let started = Instant::now();
        let child = Command::new(bin)
            .args(args)
            .stdin(Stdio::null())
            .stdout(create(&out)?)
            .stderr(create(&err)?)
            .spawn()
            .map_err(|e| format!("cannot start {}: {}", bin.display(), e))?;
        Ok(Proc {
            child,
            started,
            out,
            err,
            peak_kb: 0,
        })
    }

    fn sample_rss(&mut self) {
        let status = fs::read_to_string(format!("/proc/{}/status", self.child.id()));
        if let Some(kb) = status.ok().as_deref().and_then(parse::vm_hwm_kb) {
            self.peak_kb = self.peak_kb.max(kb);
        }
    }

    fn stdout(&self) -> String {
        fs::read_to_string(&self.out).unwrap_or_default()
    }

    fn stderr(&self) -> String {
        fs::read_to_string(&self.err).unwrap_or_default()
    }

    /// Wait for exit, sampling `VmHWM` every 20 ms. Returns the wall time
    /// from spawn to exit and the exit code; a child still running at
    /// `deadline` is killed and reported as an error.
    fn wait(&mut self, deadline: Instant) -> Result<(f64, Option<i32>), String> {
        let mut polls = 0u32;
        loop {
            if let Some(status) = self.child.try_wait().map_err(|e| e.to_string())? {
                return Ok((self.started.elapsed().as_secs_f64(), status.code()));
            }
            if polls.is_multiple_of(20) {
                self.sample_rss();
            }
            polls += 1;
            if Instant::now() >= deadline {
                let _ = self.child.kill();
                return Err(format!("timed out after {:?}", REP_TIMEOUT));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Poll stderr until `find` sees what it is looking for in the lines
    /// written so far.
    fn wait_for_line<T>(
        &mut self,
        deadline: Instant,
        find: impl Fn(&str) -> Option<T>,
    ) -> Result<T, String> {
        loop {
            if let Some(found) = find(parse::complete_lines(&self.stderr())) {
                return Ok(found);
            }
            let exited = self.child.try_wait().map_err(|e| e.to_string())?.is_some();
            if exited || Instant::now() >= deadline {
                return Err(format!(
                    "server never got that far; its stderr: {}",
                    self.stderr().trim()
                ));
            }
            self.sample_rss();
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Removes the scratch directory (process output, checkpoint generations)
/// on every exit path.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// What one repetition measured.
struct Rep {
    run_s: f64,
    rss_mb: f64,
    json: String,
    net: Option<NetRep>,
}

struct NetRep {
    handshake_s: f64,
    stats: NetStats,
    units: u64,
}

struct Bench {
    opts: Opts,
    scratch: PathBuf,
    spawned: usize,
    problems: Vec<String>,
}

impl Bench {
    fn bin(&self, name: &str) -> PathBuf {
        self.opts.bin_dir.join(name)
    }

    fn tag(&mut self, what: &str) -> String {
        self.spawned += 1;
        format!("{}_{}", self.spawned, what)
    }

    fn run_words(&self, words: Vec<String>) -> Vec<String> {
        let mut argv: Vec<String> = ["run", "--json", "--seed"].map(String::from).to_vec();
        argv.push(self.opts.seed.to_string());
        argv.extend(words);
        argv
    }

    /// One `fedclust-cli` process that must exit with `expect`.
    fn cli(&mut self, words: Vec<String>, expect: i32) -> Result<Rep, String> {
        let tag = self.tag("cli");
        let argv = self.run_words(words);
        let mut p = Proc::spawn(&self.bin("fedclust-cli"), &argv, &self.scratch, &tag)?;
        let (run_s, code) = p.wait(Instant::now() + REP_TIMEOUT)?;
        if code != Some(expect) {
            return Err(format!(
                "exit code {:?}, expected {}; stderr: {}",
                code,
                expect,
                p.stderr().trim()
            ));
        }
        Ok(Rep {
            run_s,
            rss_mb: p.peak_kb as f64 / 1024.0,
            json: p.stdout(),
            net: None,
        })
    }

    /// Crash after the middle round, then resume: two processes, one
    /// checkpoint directory. Time is the sum, memory the larger.
    fn ckpt_resume(&mut self, w: &Workload) -> Result<Rep, String> {
        let tag = self.tag("ckpt");
        let dir = self.scratch.join(tag);
        let mut words = w.flag_words(self.opts.smoke);
        words.extend(
            [
                "--checkpoint-dir",
                &dir.to_string_lossy(),
                "--checkpoint-every",
                "1",
            ]
            .map(String::from),
        );
        let mut first = words.clone();
        first.extend([
            "--crash-after".to_string(),
            w.crash_after(self.opts.smoke).to_string(),
        ]);
        let crashed = self.cli(first, CRASH_EXIT)?;
        let generations = fs::read_dir(&dir)
            .map_err(|e| format!("no checkpoint directory after the crash: {}", e))?
            .filter_map(Result::ok)
            .filter(|f| f.file_name().to_string_lossy().ends_with(".bin"))
            .count();
        if generations == 0 {
            return Err("the crashed process left no checkpoint generation".into());
        }
        words.push("--resume".into());
        let resumed = self.cli(words, 0)?;
        let _ = fs::remove_dir_all(&dir);
        Ok(Rep {
            run_s: crashed.run_s + resumed.run_s,
            rss_mb: crashed.rss_mb.max(resumed.rss_mb),
            json: resumed.json,
            net: None,
        })
    }

    /// `fedclustd` and two workers over localhost. Time is server spawn to
    /// server exit, memory the sum over the three processes.
    fn net_fleet(&mut self, words: Vec<String>) -> Result<Rep, String> {
        let deadline = Instant::now() + REP_TIMEOUT;
        let mut argv: Vec<String> = ["--listen", "127.0.0.1:0", "--min-workers", "2"]
            .map(String::from)
            .to_vec();
        // fedclustd takes the run flags without the `run` word.
        argv.extend(self.run_words(words).into_iter().skip(1));
        let tag = self.tag("server");
        let mut server = Proc::spawn(&self.bin("fedclustd"), &argv, &self.scratch, &tag)?;
        let addr = server.wait_for_line(deadline, |e| parse::listen_addr(e).map(String::from))?;
        let listening_s = server.started.elapsed().as_secs_f64();
        let mut workers = Vec::new();
        for _ in 0..2 {
            let args = [
                "--connect",
                &addr,
                "--threads",
                "1",
                "--io-timeout",
                "5",
                "--backoff-base",
                "0.01",
            ]
            .map(String::from);
            let tag = self.tag("worker");
            workers.push(Proc::spawn(
                &self.bin("fedclust-worker"),
                &args,
                &self.scratch,
                &tag,
            )?);
        }
        server.wait_for_line(deadline, |e| e.contains("starting run").then_some(()))?;
        let handshake_s = server.started.elapsed().as_secs_f64() - listening_s;
        let (run_s, code) = loop {
            for wk in &mut workers {
                wk.sample_rss();
            }
            match server.child.try_wait().map_err(|e| e.to_string())? {
                Some(status) => break (server.started.elapsed().as_secs_f64(), status.code()),
                None if Instant::now() >= deadline => return Err("server timed out".into()),
                None => {
                    server.sample_rss();
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
        };
        if code != Some(0) {
            return Err(format!(
                "server exit code {:?}; stderr: {}",
                code,
                server.stderr().trim()
            ));
        }
        let mut units = 0;
        for wk in &mut workers {
            // The server hands every worker its `Done` before it exits.
            let (_, code) = wk.wait(Instant::now() + Duration::from_secs(5))?;
            if code != Some(0) {
                return Err(format!("worker exit code {:?}", code));
            }
            units +=
                parse::worker_pushes(&wk.stderr()).ok_or("a worker never reported its pushes")?;
        }
        let stats = parse::net_stats(&server.stderr()).ok_or("no net-stats line on stderr")?;
        let peak_kb = server.peak_kb + workers.iter().map(|p| p.peak_kb).sum::<u64>();
        Ok(Rep {
            run_s,
            rss_mb: peak_kb as f64 / 1024.0,
            json: server.stdout(),
            net: Some(NetRep {
                handshake_s,
                stats,
                units,
            }),
        })
    }

    fn rep(&mut self, w: &Workload) -> Result<Rep, String> {
        match w.kind {
            Kind::Cli => self.cli(w.flag_words(self.opts.smoke), 0),
            Kind::CkptResume => self.ckpt_resume(w),
            Kind::NetFleet => self.net_fleet(w.flag_words(self.opts.smoke)),
        }
    }

    /// The workload's set-up probe: its own command with the work
    /// minimised, run the way the workload runs.
    fn probe(&mut self, w: &Workload) -> Result<Rep, String> {
        let words = w.setup_words(self.opts.smoke);
        match w.kind {
            Kind::NetFleet => self.net_fleet(words),
            Kind::Cli | Kind::CkptResume => self.cli(words, 0),
        }
    }

    /// Count one operation against its workload and keep the reason if it
    /// failed.
    fn attempt<T>(&mut self, r: &mut E2e, what: &str, result: Result<T, String>) -> Option<T> {
        r.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                r.failed += 1;
                self.problems.push(format!("{}: {}", what, e));
                None
            }
        }
    }

    fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(problem());
        }
    }
}

/// A fixed amount of std-only arithmetic (~0.2 s on the recorded box): how
/// fast the machine is right now, independent of the program under test.
fn calibration_spin() -> f64 {
    let t = Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    // xorshift64: a dependent chain the compiler cannot shorten.
    for _ in 0..100_000_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    t.elapsed().as_secs_f64()
}

/// Everything measured end to end on one workload.
#[derive(Default)]
struct E2e {
    setup_s: Vec<f64>,
    run_s: Vec<f64>,
    rss_mb: Vec<f64>,
    handshake_s: Vec<f64>,
    first_json: Option<String>,
    units: u64,
    net: Option<NetStats>,
    attempted: u64,
    failed: u64,
}

impl E2e {
    fn add(&mut self, rep: Rep) {
        self.run_s.push(rep.run_s);
        self.rss_mb.push(rep.rss_mb);
        if let Some(net) = rep.net {
            self.handshake_s.push(net.handshake_s);
            self.units = net.units;
            self.net = Some(net.stats);
        }
        self.first_json.get_or_insert(rep.json);
    }

    fn json_field(&self, key: &str) -> f64 {
        self.first_json
            .as_deref()
            .and_then(|j| parse::json_number(j, key))
            .unwrap_or(f64::NAN)
    }

    fn written_off(&self) -> u64 {
        self.net.map_or(0, |n| n.written_off)
    }

    /// Failed ÷ attempted repetitions, plus written-off ÷ dispatched units
    /// where there is a network.
    fn fail_share(&self) -> f64 {
        let reps = self.failed as f64 / self.attempted.max(1) as f64;
        reps + self.written_off() as f64 / self.units.max(1) as f64
    }
}

fn median_or_nan(v: &[f64]) -> f64 {
    if v.is_empty() {
        f64::NAN
    } else {
        stats::median(v)
    }
}

/// `null` for a value that was not measured; JSON has no NaN.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{}", v)
    } else {
        "null".into()
    }
}

fn summary(v: &[f64]) -> String {
    if v.is_empty() {
        return "n 0".into();
    }
    let q = stats::quartiles(v).unwrap_or([v[0]; 3]);
    format!(
        "min {:.4} q1 {:.4} q3 {:.4} n {}",
        stats::min(v),
        q[0],
        q[2],
        v.len()
    )
}

/// The machine and toolchain the numbers were taken on.
fn environment() -> BTreeMap<&'static str, String> {
    let first_line = |cmd: &str, args: &[&str]| {
        Command::new(cmd)
            .args(args)
            .stderr(Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into())
    };
    let cpuinfo = fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let flags = cpuinfo
        .lines()
        .find(|l| l.starts_with("flags"))
        .unwrap_or_default();
    let has = |f: &str| flags.split_whitespace().any(|w| w == f).to_string();
    BTreeMap::from([
        (
            "nproc",
            cpuinfo
                .lines()
                .filter(|l| l.starts_with("processor"))
                .count()
                .to_string(),
        ),
        (
            "available_parallelism",
            std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .to_string(),
        ),
        ("rustc", first_line("rustc", &["-V"])),
        ("git_commit", first_line("git", &["rev-parse", "HEAD"])),
        ("avx2", has("avx2")),
        ("fma", has("fma")),
    ])
}

/// Write `out/<name>`: the environment, the seed, `header` fields, and
/// one object of `"key": value` fields per workload.
fn write_report(
    b: &Bench,
    name: &str,
    header: &[String],
    rows: &[(&str, Vec<String>)],
) -> Result<(), String> {
    let env: Vec<String> = environment()
        .iter()
        .map(|(k, v)| format!("\"{}\": \"{}\"", k, v))
        .collect();
    let mut top = vec![
        format!("\"env\": {{{}}}", env.join(", ")),
        format!("\"seed\": {}", b.opts.seed),
    ];
    top.extend_from_slice(header);
    let rows: Vec<String> = rows
        .iter()
        .map(|(workload, fields)| format!("    \"{}\": {{{}}}", workload, fields.join(", ")))
        .collect();
    let text = format!(
        "{{\n  {},\n  \"workloads\": {{\n{}\n  }}\n}}\n",
        top.join(",\n  "),
        rows.join(",\n")
    );
    let path = b.opts.out_dir.join(name);
    fs::write(&path, text).map_err(|e| format!("cannot write {}: {}", path.display(), e))
}

/// The contract's result line.
fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, &str, f64)],
) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            // A bypassed layer is `null` in the files and 0 here: the
            // contract wants a number for every metric.
            let value = if value.is_finite() { *value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                name, value, unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        correct,
        attempted.max(1),
        failed,
        fields.join(", ")
    )
}

fn selected(opts: &Opts) -> Result<Vec<&'static Workload>, String> {
    if opts.workload == "all" {
        return Ok(workloads::WORKLOADS.iter().collect());
    }
    workloads::find(&opts.workload)
        .map(|w| vec![w])
        .ok_or_else(|| {
            let names: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
            format!(
                "unknown workload {}; choose all or one of {}",
                opts.workload,
                names.join(", ")
            )
        })
}

/// `--trace 0`: the end-to-end metrics of every selected workload.
fn end_to_end(b: &mut Bench, set: &[&'static Workload]) -> Result<Vec<E2e>, String> {
    let mut results: Vec<E2e> = set.iter().map(|_| E2e::default()).collect();

    // Cycles of one set-up probe and one repetition per workload,
    // round-robin so that a slow period of the shared machine is spread
    // over all of them, with a calibration spin between cycles.
    let budget = b.opts.seconds * set.len() as f64;
    // With a run length given, extra cycles may overrun it by half at most.
    let cap = if budget > 0.0 {
        1.5 * budget
    } else {
        f64::INFINITY
    };
    let measuring = Instant::now();
    let mut calib = vec![calibration_spin()];
    let mut cycles = 0;
    let mut extra = 0;
    loop {
        for (w, r) in set.iter().zip(&mut results) {
            let res = b.probe(w);
            if let Some(rep) = b.attempt(r, &format!("{} set-up probe", w.name), res) {
                r.setup_s.push(rep.run_s);
            }
            let res = b.rep(w);
            if let Some(rep) = b.attempt(r, &format!("{} repetition", w.name), res) {
                let same = r.first_json.as_ref().is_none_or(|first| *first == rep.json);
                b.check(same, || {
                    format!("{}: --json differs between repetitions", w.name)
                });
                r.add(rep);
            }
        }
        cycles += 1;
        calib.push(calibration_spin());
        let elapsed = measuring.elapsed().as_secs_f64();
        if b.opts.smoke || cycles >= MAX_REPS {
            break;
        }
        if cycles < b.opts.reps || elapsed < budget {
            continue;
        }
        // A noisy box gets up to four more cycles (and the set is flagged
        // below if that did not settle it).
        let steady = stats::max(&calib) / stats::min(&calib) <= STEADY_SPREAD;
        if steady || extra == 4 || elapsed + elapsed / cycles as f64 > cap {
            break;
        }
        extra += 1;
    }
    let calib_spread = stats::max(&calib) / stats::min(&calib);
    let unsteady = calib_spread > STEADY_SPREAD;

    // Outputs that must agree across ways of running the same federation.
    for (w, r) in set.iter().zip(&mut results) {
        let Some(first) = r.first_json.clone() else {
            continue;
        };
        let words = w.flag_words(b.opts.smoke);
        let reference = match w.kind {
            // The network must not change a byte of the result.
            Kind::NetFleet => Some(("the same run in process", words)),
            // Nor a crash and a resume, nor checkpointing itself.
            Kind::CkptResume => Some(("one uninterrupted run without checkpoints", words)),
            // Nor the thread count.
            Kind::Cli if w.threads() > 1 => {
                let threads = words.iter().position(|f| f == "--threads").expect("set") + 1;
                let mut one = words;
                one[threads] = "1".into();
                Some(("--threads 1", one))
            }
            Kind::Cli => None,
        };
        if let Some((what, words)) = reference {
            let res = b.cli(words, 0);
            if let Some(rep) = b.attempt(r, &format!("{} vs {}", w.name, what), res) {
                b.check(rep.json == first, || {
                    format!("{}: --json differs from {}", w.name, what)
                });
            }
        }
        let learns = matches!(w.name, "train_lenet" | "net_fleet");
        let acc = r.json_field("final_acc");
        b.check(b.opts.smoke || !learns || acc >= ACC_FLOOR, || {
            format!("{}: final_acc {} is below {}", w.name, acc, ACC_FLOOR)
        });
        b.check(r.written_off() == 0, || {
            format!(
                "{}: the fleet wrote off {} unit(s)",
                w.name,
                r.written_off()
            )
        });
    }

    // Report.
    println!(
        "fedbench: seed {} calib_s {:.4} calib_spread {:.3}{}",
        b.opts.seed,
        stats::median(&calib),
        calib_spread,
        if unsteady { " UNSTEADY" } else { "" }
    );
    let mut line = String::new();
    let mut rows = Vec::new();
    for (w, r) in set.iter().zip(&results) {
        let run_s = median_or_nan(&r.run_s);
        let rounds_per_s = w.rounds(b.opts.smoke) as f64 / run_s;
        let values = [
            (
                "setup_s",
                "s",
                median_or_nan(&r.setup_s),
                summary(&r.setup_s),
            ),
            ("run_s", "s", run_s, summary(&r.run_s)),
            ("rounds_per_s", "1/s", rounds_per_s, String::new()),
            (
                "peak_rss_mb",
                "MB",
                median_or_nan(&r.rss_mb),
                summary(&r.rss_mb),
            ),
            ("mb_total", "MB", r.json_field("total_mb"), String::new()),
            (
                "final_acc",
                "fraction",
                r.json_field("final_acc"),
                String::new(),
            ),
            ("fail_share", "fraction", r.fail_share(), String::new()),
            (
                "num_clusters",
                "count",
                r.json_field("num_clusters"),
                String::new(),
            ),
        ];
        let mut fields = Vec::new();
        for (name, unit, value, detail) in &values {
            println!(
                "{:<18} {:<13} {:>12.4} {:<9} {}",
                w.name, name, value, unit, detail
            );
            fields.push(format!("\"{}\": {}", name, json_num(*value)));
        }
        for (name, samples) in [("run_s_reps", &r.run_s), ("setup_s_reps", &r.setup_s)] {
            let samples: Vec<String> = samples.iter().map(|v| json_num(*v)).collect();
            fields.push(format!("\"{}\": [{}]", name, samples.join(", ")));
        }
        rows.push((w.name, fields));
        let contract: Vec<(&str, &str, f64)> = END_TO_END
            .iter()
            .map(|m| {
                let (_, _, v, _) = values.iter().find(|(n, ..)| *n == m.name).expect("listed");
                (m.name, m.unit, *v)
            })
            .collect();
        let measured = contract.iter().all(|(_, _, v)| v.is_finite() && *v > 0.0);
        b.check(measured, || {
            format!("{}: a metric was not measured", w.name)
        });
        line = result_line(b.problems.is_empty(), r.attempted, r.failed, &contract);
    }
    let header = [
        format!("\"calib_s\": {}", stats::median(&calib)),
        format!("\"calib_spread\": {}", calib_spread),
        format!("\"unsteady\": {}", unsteady),
    ];
    write_report(b, "e2e.json", &header, &rows)?;
    if set.len() == 1 {
        println!("{}", line);
    }
    Ok(results)
}

/// `--trace 1`: the per-layer metrics of every selected workload.
fn per_layer(b: &mut Bench, set: &[&'static Workload]) -> Result<Vec<E2e>, String> {
    let reps = if b.opts.smoke { 1 } else { TRACE_REPS };
    let mut line = String::new();
    let mut rows = Vec::new();
    let mut results = Vec::new();
    for w in set {
        // The untraced numbers `fl.untraced_s` and `cli.net.*` rest on.
        let mut own = E2e::default();
        let mut lenet_s = Vec::new();
        for _ in 0..reps {
            let res = b.probe(w);
            if let Some(rep) = b.attempt(&mut own, &format!("{} set-up probe", w.name), res) {
                own.setup_s.push(rep.run_s);
            }
            let res = b.rep(w);
            if let Some(rep) = b.attempt(&mut own, &format!("{} repetition", w.name), res) {
                own.add(rep);
            }
            if w.kind == Kind::NetFleet {
                // The same federation in process, alternating with the
                // fleet: the difference is the network path.
                let res = b.cli(w.flag_words(b.opts.smoke), 0);
                if let Some(rep) = b.attempt(&mut own, "train_lenet reference", res) {
                    lenet_s.push(rep.run_s);
                }
            }
        }

        // The replay with spans, in a process of its own.
        let expect = b.scratch.join(format!("{}.expect.json", w.name));
        fs::write(&expect, own.first_json.as_deref().unwrap_or_default())
            .map_err(|e| format!("cannot write {}: {}", expect.display(), e))?;
        let mut args: Vec<String> = [
            "--workload",
            w.name,
            "--seed",
            &b.opts.seed.to_string(),
            "--expect",
            &expect.to_string_lossy(),
            "--out-dir",
            &b.opts.out_dir.to_string_lossy(),
        ]
        .map(String::from)
        .to_vec();
        if b.opts.smoke {
            args.push("--smoke".into());
        }
        let tag = b.tag("trace");
        let traced = Proc::spawn(&b.bin("fedbench-trace"), &args, &b.scratch, &tag).and_then(
            |mut p| match p.wait(Instant::now() + 2 * REP_TIMEOUT)? {
                (_, Some(0)) => Ok(p.stdout()),
                (_, code) => Err(format!(
                    "exit code {:?}; stderr: {}",
                    code,
                    p.stderr().trim()
                )),
            },
        );
        let replay = b
            .attempt(&mut own, &format!("{} replay", w.name), traced)
            .unwrap_or_default();
        let replay_line = replay.lines().last().unwrap_or_default();

        let run_s = median_or_nan(&own.run_s);
        let setup_s = median_or_nan(&own.setup_s);
        // The two processes of a crash-and-resume each pay set-up.
        let processes = if w.kind == Kind::CkptResume { 2.0 } else { 1.0 };
        let phases_s = parse::json_number(replay_line, "replay_phases_s").unwrap_or(f64::NAN);
        let net = own.net.filter(|_| w.kind == Kind::NetFleet);
        let overhead_s = run_s - median_or_nan(&lenet_s);
        let own_metric = |name: &str| -> f64 {
            let count = |f: fn(&NetStats) -> u64| net.as_ref().map_or(f64::NAN, |n| f(n) as f64);
            match name {
                "fl.untraced_s" => run_s - processes * setup_s - phases_s,
                "cli.net.handshake_s" if net.is_some() => median_or_nan(&own.handshake_s),
                "cli.net.overhead_s" if net.is_some() => overhead_s,
                "cli.net.unit_rtt_ms" if net.is_some() => 1e3 * overhead_s / own.units as f64,
                "cli.net.units" if net.is_some() => own.units as f64,
                "cli.net.redispatched" => count(|n| n.redispatched),
                "cli.net.written_off" => count(|n| n.written_off),
                "cli.net.busy" => count(|n| n.busy),
                "cli.net.dup" => count(|n| n.dup),
                _ => f64::NAN,
            }
        };

        println!(
            "{:<18} run_s {:.4} setup_s {:.4} (untraced, n {})",
            w.name,
            run_s,
            setup_s,
            own.run_s.len()
        );
        let mut fields = Vec::new();
        let mut contract = Vec::new();
        for m in &PER_LAYER {
            let value = if workloads::measured_by_fedbench(m.name) {
                own_metric(m.name)
            } else {
                parse::json_number(replay_line, m.name).unwrap_or(f64::NAN)
            };
            println!(
                "{:<18} {:<22} {:>14} {}",
                w.name,
                m.name,
                json_num(value),
                m.unit
            );
            fields.push(format!("\"{}\": {}", m.name, json_num(value)));
            contract.push((m.name, m.unit, value));
        }
        b.check(own.written_off() == 0, || {
            format!(
                "{}: the fleet wrote off {} unit(s)",
                w.name,
                own.written_off()
            )
        });
        rows.push((w.name, fields));
        line = result_line(b.problems.is_empty(), own.attempted, own.failed, &contract);
        results.push(own);
    }
    write_report(b, "trace.json", &[], &rows)?;
    if set.len() == 1 {
        println!("{}", line);
    }
    Ok(results)
}

fn run() -> Result<bool, String> {
    let opts = parse_opts()?;
    let set = selected(&opts)?;
    let scratch = opts.out_dir.join(format!("tmp_{}", std::process::id()));
    fs::create_dir_all(&scratch)
        .map_err(|e| format!("cannot create {}: {}", scratch.display(), e))?;
    let _cleanup = Scratch(scratch.clone());
    let mut b = Bench {
        opts,
        scratch,
        spawned: 0,
        problems: Vec::new(),
    };
    for name in ["fedclust-cli", "fedclustd", "fedclust-worker"] {
        if !b.bin(name).is_file() {
            return Err(format!(
                "{} is missing; build with benchmark/run.sh",
                b.bin(name).display()
            ));
        }
    }
    let results = if b.opts.trace {
        per_layer(&mut b, &set)?
    } else {
        end_to_end(&mut b, &set)?
    };
    for p in &b.problems {
        eprintln!("fedbench: FAILED CHECK: {}", p);
    }
    if set.len() > 1 {
        println!(
            "fedbench: {} operation(s), {} failed, {} check(s) failed",
            results.iter().map(|r| r.attempted).sum::<u64>(),
            results.iter().map(|r| r.failed).sum::<u64>(),
            b.problems.len()
        );
    }
    Ok(b.problems.is_empty())
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("fedbench: {}", e);
            ExitCode::from(2)
        }
    }
}
