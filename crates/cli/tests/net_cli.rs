//! End-to-end networked federation through the real binaries: a
//! `fedclustd` server plus a fleet of `fedclust-worker` processes over
//! localhost TCP (optionally through the `fedclust-chaos` frame-mangling
//! proxy) must print byte-identical `--json` output to the in-process
//! simulation at the same seed — including across a server SIGKILL +
//! resume and a worker dying mid-upload.

use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Exit code the crash hooks use (fedclust_fl::faults::CRASH_EXIT_CODE).
const CRASH_EXIT_CODE: i32 = 86;

fn run_args(method: &str, extra: &[&str]) -> Vec<String> {
    let mut v: Vec<String> = [
        "--method",
        method,
        "--dataset",
        "fmnist",
        "--partition",
        "skew50",
        "--clients",
        "4",
        "--rounds",
        "3",
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
    .collect();
    v.extend(extra.iter().map(|s| s.to_string()));
    v
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fedclust-net-{}-{}", tag, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

/// Reference output from the ordinary in-process CLI.
fn in_process(method: &str, extra: &[&str]) -> String {
    let mut args = vec!["run".to_string()];
    args.extend(run_args(method, extra));
    let out = Command::new(env!("CARGO_BIN_EXE_fedclust-cli"))
        .args(&args)
        .output()
        .expect("cli runs");
    assert!(
        out.status.success(),
        "reference run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// How long any one wait on a child may take — for its listen address, for
/// its output. A stall is a failed assertion carrying the child's stderr,
/// never a hung suite.
const DEADLINE: Duration = Duration::from_secs(120);

/// A spawned process whose stderr is kept, and scanned for a `listening on
/// <addr>` discovery line.
struct NetProc {
    child: Child,
    addr: String,
    stderr: Arc<Mutex<String>>,
    /// The thread keeping `stderr`; it ends when the child's stderr closes.
    reader: JoinHandle<()>,
}

/// Spawn `bin` and wait for its discovery line; `Err` carries its stderr
/// when it exits (or `DEADLINE` passes) without printing one.
fn try_spawn_listener(bin: &str, args: &[String], prefix: &str) -> Result<NetProc, String> {
    let mut child = Command::new(bin)
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn");
    let lines = BufReader::new(child.stderr.take().expect("stderr piped")).lines();
    let stderr = Arc::new(Mutex::new(String::new()));
    let (tx, rx) = mpsc::channel::<String>();
    let (prefix, kept) = (prefix.to_string(), Arc::clone(&stderr));
    let reader = std::thread::spawn(move || {
        for line in lines.map_while(Result::ok) {
            if let Some(rest) = line.strip_prefix(&prefix) {
                // Chaos prints "ADDR -> upstream"; take the first word.
                let addr = rest.split_whitespace().next().unwrap_or("").to_string();
                let _ = tx.send(addr);
            }
            let mut kept = kept.lock().unwrap();
            kept.push_str(&line);
            kept.push('\n');
        }
    });
    // The channel closes with the child's stderr: an early exit is an
    // immediate `Err`, not a wait.
    match rx.recv_timeout(DEADLINE) {
        Ok(addr) => Ok(NetProc {
            child,
            addr,
            stderr,
            reader,
        }),
        Err(_) => {
            let _ = child.kill();
            let _ = child.wait();
            let stderr = stderr.lock().unwrap().clone();
            Err(stderr)
        }
    }
}

fn spawn_listener(bin: &str, args: &[String], prefix: &str) -> NetProc {
    try_spawn_listener(bin, args, prefix)
        .unwrap_or_else(|stderr| panic!("{bin} never printed its listen address:\n{stderr}"))
}

fn spawn_server(method: &str, extra: &[&str], net: &[&str]) -> NetProc {
    let mut args: Vec<String> = ["--listen", "127.0.0.1:0"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    args.extend(net.iter().map(|s| s.to_string()));
    args.extend(run_args(method, extra));
    spawn_listener(
        env!("CARGO_BIN_EXE_fedclustd"),
        &args,
        "fedclustd: listening on ",
    )
}

fn spawn_worker(addr: &str, extra: &[&str]) -> Child {
    let mut args = vec!["--connect".to_string(), addr.to_string()];
    // Short I/O timeout and backoff so loss-heavy scenarios (chaos, server
    // kill) redial quickly; neither knob feeds the training determinism.
    args.push("--io-timeout".into());
    args.push("1".into());
    args.push("--backoff-base".into());
    args.push("0.01".into());
    args.extend(extra.iter().map(|s| s.to_string()));
    Command::new(env!("CARGO_BIN_EXE_fedclust-worker"))
        .args(&args)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn worker")
}

/// The server's one `net-stats` stderr line, in the exact shape
/// `benchmark/` parses: `[connects, redispatched, written_off, busy, dup]`.
fn net_stats(stderr: &str) -> [u64; 5] {
    let lines: Vec<&str> = stderr.lines().filter(|l| l.contains("net-stats")).collect();
    let [line] = lines[..] else {
        panic!("expected one net-stats line:\n{stderr}");
    };
    let digitless: String = line.chars().filter(|c| !c.is_ascii_digit()).collect();
    assert_eq!(
        digitless, "fedclustd: net-stats connects= redispatched= written_off= busy= dup=",
        "malformed net-stats line: {line:?}"
    );
    let digits = line
        .split(|c: char| !c.is_ascii_digit())
        .filter(|d| !d.is_empty());
    let values: Vec<u64> = digits.map(|d| d.parse().expect("a counter")).collect();
    values.try_into().expect("one value per counter")
}

/// Wait for the server to finish; return its stdout and its `net-stats`
/// counters. A server still running at `DEADLINE` is killed and reported
/// with its stderr.
fn finish(mut server: NetProc) -> (String, [u64; 5]) {
    let mut stdout = server.child.stdout.take().expect("stdout piped");
    let (tx, rx) = mpsc::channel::<String>();
    std::thread::spawn(move || {
        let mut out = String::new();
        stdout.read_to_string(&mut out).expect("read server stdout");
        let _ = tx.send(out);
    });
    // Its stdout closes when it exits.
    let Ok(stdout) = rx.recv_timeout(DEADLINE) else {
        let _ = server.child.kill();
        let _ = server.child.wait();
        let stderr = server.stderr.lock().unwrap();
        panic!("server still running after {DEADLINE:?}:\n{stderr}");
    };
    let status = server.child.wait().expect("server exits");
    assert!(status.success(), "server failed with {}", status);
    server.reader.join().expect("stderr reader");
    let stats = net_stats(&server.stderr.lock().unwrap());
    let [connects, _, _, busy, _] = stats;
    // The protocol has no `Busy`; the field stays for `fedbench`'s parser.
    assert!(connects >= 1 && busy == 0, "net-stats {stats:?}");
    (stdout, stats)
}

/// Reap workers with a bounded grace period. Workers normally exit on the
/// server's `Done`, but one sleeping through a reconnect backoff can miss
/// the server's shutdown grace window and keep redialling a dead address —
/// waiting on it unconditionally would hang the suite, so after the grace
/// we kill what's left.
fn reap(mut workers: Vec<Child>) {
    let deadline = Instant::now() + Duration::from_secs(10);
    for w in &mut workers {
        loop {
            match w.try_wait() {
                Ok(Some(_)) => break,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(50));
                }
                _ => {
                    let _ = w.kill();
                    let _ = w.wait();
                    break;
                }
            }
        }
    }
}

/// Run `method` through `fedclustd` and `workers` worker processes and
/// require its `--json` output byte-identical to the in-process
/// simulation of the same argv.
fn assert_networked_matches(method: &str, extra: &[&str], workers: usize) {
    let reference = in_process(method, extra);
    let server = spawn_server(method, extra, &["--min-workers", &workers.to_string()]);
    let fleet: Vec<Child> = (0..workers)
        .map(|_| spawn_worker(&server.addr, &[]))
        .collect();
    let (out, _) = finish(server);
    reap(fleet);
    assert_eq!(
        reference, out,
        "networked {method} {extra:?} diverged from simulation"
    );
}

/// 200 clients over 20 training samples: most clients have no training
/// data and push an update of weight 0 (Eq. 2 weights by dataset size).
/// The server must take it as the simulation does — received, billed,
/// contributing nothing — not write it off as a loss.
const EMPTY_CLIENTS: [&str; 8] = [
    "--clients",
    "200",
    "--rounds",
    "2",
    "--samples-per-class",
    "2",
    "--seed",
    "3",
];

/// FedAvg over localhost with two worker processes: byte-identical to the
/// in-process simulation at the same seed, also when most clients are
/// empty.
#[test]
fn networked_fedavg_matches_in_process() {
    assert_networked_matches("fedavg", &[], 2);
    assert_networked_matches("fedavg", &EMPTY_CLIENTS, 1);
}

/// FedClust (round-0 warmup collection + clustered rounds) over localhost
/// with four worker processes — the full weight-driven clustering path
/// runs with training farmed out and must replay bit-identically, also
/// when whole clusters' sampled members are empty.
#[test]
fn networked_fedclust_with_four_workers_matches_in_process() {
    assert_networked_matches("fedclust", &[], 4);
    assert_networked_matches("fedclust", &EMPTY_CLIENTS, 1);
}

/// A codec-compressed networked run: the worker-side encoder and the
/// in-process transport share one encode entry point, so wire bytes,
/// decoded states, and comm accounting must agree exactly — also for
/// FedClust under top-k, whose workers encode the warm-up's final-layer
/// slice and carry its residual into the first full-state round.
#[test]
fn networked_codec_run_matches_in_process() {
    assert_networked_matches("fedavg", &["--codec", "delta+q8+sr"], 2);
    assert_networked_matches("fedclust", &["--codec", "delta+topk:0.1"], 2);
}

/// FedClust end-to-end through the chaos proxy at a fixed chaos seed:
/// dropped, delayed, truncated, and corrupted frames must all heal
/// through the shared retry machinery, leaving the output byte-identical
/// to the clean simulation.
#[test]
fn chaos_proxy_run_is_bit_identical() {
    // A retry budget comfortably above the chaos pressure; with zero
    // downlink loss the flag is inert in-process, so the reference is
    // unchanged by it.
    let extra = ["--retries", "8"];
    let reference = in_process("fedclust", &extra);
    let server = spawn_server("fedclust", &extra, &["--min-workers", "2"]);
    let chaos_args: Vec<String> = [
        "--listen",
        "127.0.0.1:0",
        "--connect",
        &server.addr,
        "--chaos-seed",
        "11",
        "--drop",
        "0.05",
        "--corrupt",
        "0.05",
        "--truncate",
        "0.03",
        "--delay",
        "0.10",
        "--delay-ms",
        "20",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let mut chaos = spawn_listener(
        env!("CARGO_BIN_EXE_fedclust-chaos"),
        &chaos_args,
        "fedclust-chaos: listening on ",
    );
    let workers = vec![
        spawn_worker(&chaos.addr, &[]),
        spawn_worker(&chaos.addr, &[]),
    ];
    let (out, _) = finish(server);
    reap(workers);
    let _ = chaos.child.kill();
    let _ = chaos.child.wait();
    assert_eq!(reference, out, "chaos-proxied run diverged from simulation");
}

/// The generations in checkpoint directory `d`, oldest first.
fn generations(d: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(d)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with("ckpt-") && n.ends_with(".bin"))
        .collect();
    names.sort();
    names
}

/// SIGKILL the server mid-run, restart it with `--resume` on the same
/// port, and require (a) byte-identical final `--json` output and (b) a
/// byte-identical final checkpoint generation versus an uninterrupted
/// checkpointed in-process run.
///
/// The kill lands mid-run by construction, not by timing: the scenario runs
/// far more rounds than fit between its first durable checkpoint and the
/// kill that follows at once, and the newest generation on disk at the
/// kill is asserted to be short of the last. The resumed server gets a
/// fresh worker of its own — the old fleet may survive the outage and
/// redial, or may have spent its retries; the run needs neither.
#[test]
fn server_sigkill_and_resume_is_byte_identical() {
    const ROUNDS: &str = "40";
    const LAST: &str = "ckpt-000040.bin";
    fn scenario(d: &str) -> [&str; 8] {
        [
            "--rounds",
            ROUNDS,
            "--checkpoint-dir",
            d,
            "--checkpoint-every",
            "1",
            "--keep",
            "8",
        ]
    }
    let ref_dir = tmpdir("sigkill-ref");
    let ref_dir_s = ref_dir.to_string_lossy().into_owned();
    let net_dir = tmpdir("sigkill-net");
    let net_dir_s = net_dir.to_string_lossy().into_owned();

    let reference = in_process("fedclust", &scenario(&ref_dir_s));
    assert_eq!(generations(&ref_dir).last().unwrap(), LAST);

    let mut server = spawn_server("fedclust", &scenario(&net_dir_s), &["--min-workers", "2"]);
    let addr = server.addr.clone();
    let mut workers = vec![spawn_worker(&addr, &[]), spawn_worker(&addr, &[])];

    // SIGKILL the server as soon as a round's checkpoint is durable.
    let deadline = Instant::now() + DEADLINE;
    while !net_dir.join("ckpt-000001.bin").exists() {
        assert!(Instant::now() < deadline, "first checkpoint never appeared");
        std::thread::sleep(Duration::from_millis(5));
    }
    server.child.kill().expect("SIGKILL server");
    let _ = server.child.wait();
    let at_kill = generations(&net_dir).pop().expect("a checkpoint");
    assert!(
        at_kill.as_str() < LAST,
        "the run finished ({at_kill}) before the kill"
    );

    // Restart on the same port with --resume; whatever survives of the
    // fleet is still redialling it.
    let mut resume_args: Vec<String> = vec!["--listen".into(), addr];
    resume_args.extend(["--min-workers", "1"].map(str::to_string));
    resume_args.extend(run_args("fedclust", &scenario(&net_dir_s)));
    resume_args.push("--resume".into());
    let resumed = retry_spawn(&resume_args);
    workers.push(spawn_worker(&resumed.addr, &[]));
    let (out, _) = finish(resumed);
    reap(workers);
    assert_eq!(reference, out, "resumed networked run diverged");

    // The final checkpoint generation must match the reference run's,
    // byte for byte.
    assert_eq!(generations(&net_dir).last().unwrap(), LAST);
    let final_bytes = |d: &Path| std::fs::read(d.join(LAST)).unwrap();
    assert_eq!(
        final_bytes(&ref_dir),
        final_bytes(&net_dir),
        "final checkpoint bytes differ"
    );

    let _ = std::fs::remove_dir_all(&ref_dir);
    let _ = std::fs::remove_dir_all(&net_dir);
}

/// The port was just freed: give the resumed server's bind a few tries.
fn retry_spawn(args: &[String]) -> NetProc {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match try_spawn_listener(
            env!("CARGO_BIN_EXE_fedclustd"),
            args,
            "fedclustd: listening on ",
        ) {
            Ok(server) => return server,
            Err(stderr) => {
                assert!(
                    Instant::now() < deadline,
                    "could not rebind resume port:\n{stderr}"
                );
                std::thread::sleep(Duration::from_millis(200));
            }
        }
    }
}

/// One worker dies cleanly after its first acknowledged push; the
/// surviving worker does the rest and the run still replays
/// bit-identically (failover, not loss).
///
/// Scheduling race: the run is three units, one per round, and a unit
/// goes to whichever idle worker gets to it first. The survivor can win
/// all three — start-up is skewed (each worker builds its dataset after
/// `Welcome`), and nothing promises that two parked pulls alternate — and
/// then the doomed worker's pull stays parked until `Done`: it exits 0
/// having pushed nothing, and the hook never fired. That outcome is benign
/// (the output must still match the reference), so we re-race the scenario
/// until the crash path is actually exercised, within a bounded attempt
/// budget. What a lost lease does to the table — death, requeue, delivery
/// by another connection, late duplicate — is pinned without a race by
/// `coordinator::tests::failover_delivers_once_and_drops_the_late_duplicate`,
/// and what the server thread makes of it (`redispatched` counted) by
/// `net::tests::a_dead_lease_holder_fails_over_to_the_other_connection`.
#[test]
fn worker_death_fails_over_without_perturbing_the_run() {
    let reference = in_process("fedavg", &[]);
    const ATTEMPTS: usize = 10;
    for _ in 0..ATTEMPTS {
        let server = spawn_server("fedavg", &[], &["--min-workers", "2"]);
        let mut doomed = spawn_worker(&server.addr, &["--die-after", "1"]);
        let survivor = spawn_worker(&server.addr, &[]);
        let (out, [_, redispatched, written_off, ..]) = finish(server);
        let status = doomed.wait().expect("doomed worker exits");
        reap(vec![survivor]);
        assert_eq!(reference, out, "worker failover perturbed the run");
        match status.code() {
            // Hook fired: failover exercised. The doomed worker died right
            // after its `Ack`, holding no lease: net-stats reports nothing
            // redispatched and nothing lost.
            Some(CRASH_EXIT_CODE) => {
                assert_eq!((redispatched, written_off), (0, 0), "net-stats");
                return;
            }
            Some(0) => {} // doomed never won a lease; re-race
            other => panic!("doomed worker exited with unexpected status {:?}", other),
        }
    }
    panic!(
        "die-after hook never fired in {ATTEMPTS} attempts — the doomed worker never got a lease"
    );
}

/// A worker killed mid-upload (torn push frame) with a zero retry budget:
/// the unit is written off, the run degrades gracefully, and the loss
/// shows up in the fault telemetry — the server must NOT hang or crash.
///
/// No race: the doomed worker is the whole fleet when the run starts, so
/// round 0's one unit is its to tear; the survivor only joins once it is
/// dead, and finds round 1 waiting.
#[test]
fn worker_torn_upload_degrades_gracefully_with_telemetry() {
    let server = spawn_server(
        "fedavg",
        &["--retries", "0"],
        &["--min-workers", "1", "--round-timeout", "60"],
    );
    let mut doomed = spawn_worker(&server.addr, &["--die-mid-push", "1"]);
    let status = doomed.wait().expect("doomed worker exits");
    assert_eq!(status.code(), Some(CRASH_EXIT_CODE));
    let survivor = spawn_worker(&server.addr, &[]);
    let (out, [_, _, written_off, ..]) = finish(server);
    reap(vec![survivor]);
    assert!(written_off >= 1, "loss not reported in net-stats");

    // The loss is genuine (budget 0 ⇒ no redispatch), so it must appear
    // in the deterministic telemetry as an uplink loss + injected fault.
    assert!(
        json_u64(&out, "uplink_losses") >= 1,
        "torn upload must be recorded as an uplink loss:\n{}",
        out
    );
    assert!(
        json_u64(&out, "faults_injected") >= 1,
        "torn upload must count as an injected fault:\n{}",
        out
    );
}

/// Pull an integer field out of the pretty-printed `--json` output
/// (`fedclust_fl::json` reads only a schema it is given, not a value tree).
fn json_u64(json: &str, field: &str) -> u64 {
    let needle = format!("\"{}\":", field);
    let rest = &json[json
        .find(&needle)
        .unwrap_or_else(|| panic!("no {field} in output"))
        + needle.len()..];
    let digits: String = rest
        .trim_start()
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().expect("integer field")
}
