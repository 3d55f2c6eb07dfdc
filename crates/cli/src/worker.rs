//! `fedclust-worker` — a networked client-fleet process.
//!
//! A worker carries nothing from one unit of work to the next that could
//! reach a result: it connects, replays the `run` argv the server ships in
//! `Welcome` to rebuild the *identical* dataset, config, and model, then
//! pulls `(round, client)` units, trains each on that one model replica
//! from the unit's own start state, and pushes the results back. All
//! training randomness is keyed by `(seed, round, client)` — never by
//! worker identity — so any worker can compute any unit at any attempt and
//! the result is bit-identical to the in-process simulation.
//!
//! Workers are built to outlive the server: a dead or stalled connection
//! (including a SIGKILLed server mid-round) is redialled under the shared
//! [`RetryPolicy`] backoff until the reconnect budget runs out, which is
//! what makes the kill-and-resume flow work end to end.

use std::io::Write as _;
use std::net::TcpStream;
use std::time::Duration;

use fedclust_data::FederatedDataset;
use fedclust_fl::engine::{init_model, train_unit, LocalJob, LocalRule};
use fedclust_fl::faults::CRASH_EXIT_CODE;
use fedclust_fl::FlConfig;
use fedclust_nn::Model;
use fedclust_proto::{read_msg, write_msg, Msg, ProtoError, RetryPolicy, PROTO_VERSION};

use crate::args::Args;
use crate::net_args::WorkerArgs;
use crate::{build_config, build_dataset};

/// Everything a worker derives from the server's `Welcome` argv. Cached
/// across reconnects: the argv is canonical, so an unchanged argv means
/// the dataset and model are still valid.
struct RunContext {
    argv: Vec<String>,
    fd: FederatedDataset,
    cfg: FlConfig,
    /// The one model every unit of the session trains on: `train_unit`
    /// loads each unit's start state into it.
    replica: Model,
}

impl RunContext {
    fn build(argv: Vec<String>) -> Result<RunContext, String> {
        let args = Args::parse(&argv).map_err(|e| format!("bad server argv: {}", e))?;
        let fd = build_dataset(&args)?;
        let cfg = build_config(&args);
        let replica = init_model(&fd, &cfg);
        Ok(RunContext {
            argv,
            fd,
            cfg,
            replica,
        })
    }
}

/// Why a connection session ended.
enum SessionEnd {
    /// Server said `Done`: the run is complete.
    Done,
    /// Connection died or stalled: redial and resume.
    Lost,
}

/// Crash-injection hooks for the integration tests, mirroring the
/// checkpointer's `CrashPlan` discipline: exit with [`CRASH_EXIT_CODE`]
/// at a byte-precise point in the protocol.
struct DiePlan {
    /// Exit after this many *acknowledged* pushes.
    after: Option<usize>,
    /// Write half of this push's frame, then exit (torn upload).
    mid_push: Option<usize>,
}

/// Send a push, honouring the die-mid-push test hook. Returns `Ok(())`
/// when acked.
fn send_push(
    stream: &mut TcpStream,
    push: &Msg,
    pushes_done: usize,
    die: &DiePlan,
) -> Result<(), ProtoError> {
    if die.mid_push == Some(pushes_done + 1) {
        // Torn upload: half a frame, then a hard crash. The server must
        // see a framing error, requeue the lease, and degrade gracefully.
        let bytes = push.encode();
        let half = bytes.len() / 2;
        let _ = stream.write_all(&bytes[..half]);
        let _ = stream.flush();
        std::process::exit(CRASH_EXIT_CODE);
    }
    write_msg(stream, push)?;
    match read_msg(stream)? {
        Msg::Ack { .. } => Ok(()),
        _ => Err(ProtoError::Io(std::io::ErrorKind::InvalidData)),
    }
}

/// One connection session: handshake, then pull/train/push until the
/// server finishes or the connection dies.
fn session(
    args: &WorkerArgs,
    ctx_cache: &mut Option<RunContext>,
    pushes_done: &mut usize,
    die: &DiePlan,
) -> Result<SessionEnd, String> {
    let mut stream = match TcpStream::connect(&args.connect) {
        Ok(s) => s,
        Err(_) => return Ok(SessionEnd::Lost),
    };
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_secs_f64(args.io_timeout)));

    if write_msg(
        &mut stream,
        &Msg::Hello {
            version: PROTO_VERSION,
        },
    )
    .is_err()
    {
        return Ok(SessionEnd::Lost);
    }
    let argv = match read_msg(&mut stream) {
        Ok(Msg::Welcome { argv, .. }) => argv,
        Ok(Msg::Reject { reason }) => return Err(format!("server rejected worker: {}", reason)),
        Ok(_) | Err(_) => return Ok(SessionEnd::Lost),
    };
    let rebuild = match ctx_cache {
        Some(ctx) => ctx.argv != argv,
        None => true,
    };
    if rebuild {
        *ctx_cache = Some(RunContext::build(argv)?);
    }
    let ctx = ctx_cache.as_mut().expect("context just built");

    loop {
        if write_msg(&mut stream, &Msg::PullWork).is_err() {
            return Ok(SessionEnd::Lost);
        }
        match read_msg(&mut stream) {
            Ok(Msg::Work {
                round,
                client,
                epochs,
                prox_mu,
                upload,
                state,
                residual,
            }) => {
                let job = LocalJob {
                    start_state: &state,
                    epochs: epochs as usize,
                    client: client as usize,
                    round: round as usize,
                    rule: LocalRule::Sgd(prox_mu),
                };
                let upload = upload.start as usize..upload.end as usize;
                let push = train_unit(&ctx.fd, &ctx.cfg, &mut ctx.replica, upload, job, residual)?;
                match send_push(&mut stream, &push, *pushes_done, die) {
                    Ok(()) => {
                        *pushes_done += 1;
                        if die.after == Some(*pushes_done) {
                            std::process::exit(CRASH_EXIT_CODE);
                        }
                    }
                    Err(_) => return Ok(SessionEnd::Lost),
                }
            }
            Ok(Msg::Wait) => {}
            Ok(Msg::Done) => return Ok(SessionEnd::Done),
            Ok(_) => return Ok(SessionEnd::Lost),
            Err(_) => return Ok(SessionEnd::Lost),
        }
    }
}

/// Worker main loop: dial, serve a session, redial under the shared
/// backoff until `Done` or the reconnect budget is spent.
pub fn run_worker(args: &WorkerArgs) -> Result<(), String> {
    if let Some(t) = args.threads {
        rayon::set_num_threads(t);
    }
    // Lossless: the flag's row bounds it by `MAX_RECONNECTS`.
    let policy = RetryPolicy::from_retries(args.reconnects as u32)
        .with_backoff_base(Duration::from_secs_f64(args.backoff_base));
    let die = DiePlan {
        after: args.die_after,
        mid_push: args.die_mid_push,
    };
    let mut ctx_cache: Option<RunContext> = None;
    let mut pushes_done = 0usize;
    for attempt in policy.attempts() {
        if attempt > 0 {
            // Reconnect backoff: seeded from the run when we know it (so
            // a fleet of workers desynchronises deterministically), and
            // keyed by process id before the first handshake.
            let (seed, key) = match &ctx_cache {
                Some(ctx) => (ctx.cfg.seed, 0u64),
                None => (0, std::process::id() as u64),
            };
            std::thread::sleep(policy.backoff(seed, 0, key, attempt));
        }
        match session(args, &mut ctx_cache, &mut pushes_done, &die)? {
            SessionEnd::Done => {
                eprintln!(
                    "fedclust-worker: run complete after {} push(es)",
                    pushes_done
                );
                return Ok(());
            }
            SessionEnd::Lost => continue,
        }
    }
    Err(format!(
        "fedclust-worker: gave up after {} reconnect attempts",
        policy.max_attempts
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A checksum-valid `Work` frame can still name a client or carry a
    /// state this worker's dataset and model do not have. A residual of any
    /// length is fine: the codec discards one of a stale shape.
    #[test]
    fn untrainable_work_is_an_error_not_a_panic() {
        let argv = "run --method fedavg --clients 2 --samples-per-class 4 --rounds 1 --epochs 1 \
                    --codec delta+topk:0.1";
        let argv = argv.split_whitespace().map(String::from).collect();
        let mut ctx = RunContext::build(argv).expect("a tiny run builds");
        let len = ctx.replica.state_len();
        let mut run = |client, state_len: usize, residual_len: usize| {
            let job = LocalJob {
                start_state: &vec![0.0; state_len],
                epochs: 1,
                client,
                round: 0,
                rule: LocalRule::Sgd(None),
            };
            let residual = vec![0.0; residual_len];
            train_unit(&ctx.fd, &ctx.cfg, &mut ctx.replica, 0..len, job, residual)
        };
        let mut rejected =
            |client, state_len| run(client, state_len, 0).expect_err("must be rejected");
        assert!(rejected(2, len).contains("client 2 with a state of"));
        assert!(rejected(2, len).contains("the dataset has 2 clients"));
        for state_len in [len - 1, len + 1, 0] {
            let expected = format!(
                "a state of {state_len} values, but the dataset has 2 clients and the model \
                 {len} values"
            );
            assert!(rejected(1, state_len).contains(&expected));
        }
        for residual_len in [0, 1, len, len + 1] {
            let push = run(1, len, residual_len).expect("a sound unit trains");
            assert!(matches!(
                push,
                Msg::Push {
                    round: 0,
                    client: 1,
                    ..
                }
            ));
        }
    }
}
