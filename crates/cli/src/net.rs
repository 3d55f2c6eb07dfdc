//! `fedclustd` — the networked federation server.
//!
//! The server owns everything except local training: sampling, fault
//! injection, codec accounting, aggregation, evaluation, and
//! checkpointing all run in-process exactly as the simulation does. Only
//! the per-client SGD is delegated: [`serve`] hands a
//! [`RemoteTrainer`](fedclust_fl::engine::RemoteTrainer) to [`crate::execute`],
//! which passes it down to the federation driver, and it farms each unit out
//! to a fleet of `fedclust-worker` processes speaking the `fedclust-proto`
//! TCP protocol.
//!
//! Determinism: every training result is keyed by `(seed, round,
//! client)` on the worker side, so *which* worker computes a unit, in
//! what order, and after how many retries cannot perturb the run. The
//! networked `RunResult` is byte-identical to the in-process one by
//! construction; redispatches and reconnects are reported on stderr
//! only and never touch the meter or fault telemetry.
//!
//! Fault handling: a work unit leased to a connection that dies is
//! requeued with its attempt count bumped; once the shared
//! [`RetryPolicy`] budget is exhausted the client is written off for the
//! round and flows through the ordinary graceful-degradation path
//! (`weighted_average_or`, largest-cluster fallback). A per-round
//! deadline backstops the case where no worker ever returns.
//!
//! Which unit is where is the [`Coordinator`]'s business: a plain value
//! whose methods are the protocol's transitions. This file is the I/O
//! around it — every thread locks the table, calls one method, unlocks,
//! and only then writes to its socket or waits to be notified. Nobody
//! polls: a worker with nothing to do stays parked in its `PullWork` until
//! there is work, the run is over, or [`READ_TIMEOUT`] asks for a
//! keep-alive.

use std::collections::BTreeMap;
use std::io::ErrorKind;
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use fedclust_fl::engine::{settle, RemoteOutcome, RemoteRound, RemoteTrainer};
use fedclust_proto::{read_msg, write_msg, Msg, ProtoError, RetryPolicy, PROTO_VERSION};

use crate::coordinator::{Coordinator, Pull, Pushed, Unit};
use crate::net_args::ServeArgs;

/// How long a `Busy` worker is told to hold its push.
const BUSY_MILLIS: u32 = 50;
/// Server-side read timeout, which bounds how stale a dead connection can
/// be — and the longest a parked `PullWork` goes unanswered: a worker
/// hears from the server at least this often, so `fedclust-worker` takes
/// no `--io-timeout` that is not above it.
pub(crate) const READ_TIMEOUT: Duration = Duration::from_millis(200);

const POISONED: &str = "a thread panicked while holding the lease table";

struct Shared {
    table: Mutex<Coordinator>,
    /// Notified whenever the table changes in a way a thread may be waiting
    /// for: work enqueued, an upload delivered, a connection up or down, the
    /// run over.
    changed: Condvar,
    run_argv: Vec<String>,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, Coordinator> {
        self.table.lock().expect(POISONED)
    }

    /// Give `table` up until the next notification, or until `deadline` if
    /// there is one. Wake-ups can be spurious: callers loop on what they
    /// wait for.
    fn wait<'a>(
        &self,
        table: MutexGuard<'a, Coordinator>,
        deadline: Option<Instant>,
    ) -> MutexGuard<'a, Coordinator> {
        let Some(deadline) = deadline else {
            return self.changed.wait(table).expect(POISONED);
        };
        let left = deadline.saturating_duration_since(Instant::now());
        self.changed.wait_timeout(table, left).expect(POISONED).0
    }
}

/// The next message on `stream`, however many read timeouts it takes;
/// `None` once the connection is dead or hostile.
fn next_msg(stream: &mut TcpStream) -> Option<Msg> {
    loop {
        match read_msg(stream) {
            Ok(msg) => return Some(msg),
            Err(ProtoError::Io(ErrorKind::WouldBlock | ErrorKind::TimedOut)) => continue,
            Err(_) => return None,
        }
    }
}

/// Serve one worker connection: handshake, then answer pulls and pushes
/// until the connection dies or the run completes.
fn handle_conn(shared: &Shared, mut stream: TcpStream, conn_id: u64) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));

    // Handshake: exact version match or a typed rejection.
    match next_msg(&mut stream) {
        Some(Msg::Hello { version }) if version == PROTO_VERSION => {}
        Some(Msg::Hello { version }) => {
            let _ = write_msg(
                &mut stream,
                &Msg::Reject {
                    reason: format!("protocol version {} != {}", version, PROTO_VERSION),
                },
            );
            return;
        }
        _ => return, // first frame must be Hello
    }
    let worker_id = {
        let mut table = shared.lock();
        shared.changed.notify_all();
        table.connect()
    };
    let welcome = Msg::Welcome {
        worker_id,
        argv: shared.run_argv.clone(),
    };
    let mut alive = write_msg(&mut stream, &welcome).is_ok();

    while alive {
        let Some(msg) = next_msg(&mut stream) else {
            break;
        };
        let reply = match msg {
            Msg::PullWork => {
                let keep_alive = Instant::now() + READ_TIMEOUT;
                let mut table = shared.lock();
                loop {
                    match table.pull(conn_id) {
                        Pull::Work(unit) => {
                            drop(table);
                            break unit.to_msg();
                        }
                        Pull::Done => break Msg::Done,
                        // Parked long enough: the worker hears `Wait`, pulls
                        // again at once, and knows the server is alive.
                        Pull::Parked if Instant::now() >= keep_alive => {
                            break Msg::Wait { millis: 0 }
                        }
                        Pull::Parked => table = shared.wait(table, Some(keep_alive)),
                    }
                }
            }
            Msg::Push { round, client, .. } => {
                let mut table = shared.lock();
                match table.push(conn_id, (round, client), msg) {
                    Pushed::Accept => {
                        shared.changed.notify_all();
                        Msg::Ack { round, client }
                    }
                    Pushed::Duplicate => Msg::Ack { round, client },
                    Pushed::Busy => Msg::Busy {
                        millis: BUSY_MILLIS,
                    },
                }
            }
            // Anything else mid-session is a protocol violation.
            _ => break,
        };
        alive = write_msg(&mut stream, &reply).is_ok();
    }

    let mut table = shared.lock();
    table.disconnect(conn_id);
    shared.changed.notify_all();
}

/// The [`RemoteTrainer`] that farms work out over the socket fleet.
struct NetTrainer {
    shared: Arc<Shared>,
    round_deadline: Option<Duration>,
}

impl RemoteTrainer for NetTrainer {
    /// Queue one unit per job and block until every unit is settled:
    /// delivered, written off, or past the round deadline. Consecutive jobs
    /// that start from the same slice share one copy of it.
    fn train_remote(&self, mut req: RemoteRound) -> RemoteOutcome {
        let mut residuals = std::mem::take(&mut req.residuals).into_iter();
        let mut shared: Option<(&[f32], Arc<Vec<f32>>)> = None;
        let units: Vec<Unit> = req
            .jobs
            .iter()
            .map(|job| {
                let state = match &shared {
                    Some((of, state)) if std::ptr::eq(*of, job.start_state) => Arc::clone(state),
                    _ => {
                        let state = Arc::new(job.start_state.to_vec());
                        shared = Some((job.start_state, Arc::clone(&state)));
                        state
                    }
                };
                Unit {
                    mode: req.mode,
                    round: job.round as u32,
                    client: job.client as u32,
                    epochs: job.epochs as u32,
                    prox_mu: job.prox_mu,
                    state,
                    residual: residuals.next().unwrap_or_default(),
                }
            })
            .collect();
        let deadline = self.round_deadline.map(|d| Instant::now() + d);
        let mut table = self.shared.lock();
        table.enqueue(units);
        self.shared.changed.notify_all();

        let mut pushes = BTreeMap::new();
        let lost = loop {
            pushes.extend(table.take_delivered());
            match table.settled() {
                Some(lost) => break lost,
                None if deadline.is_some_and(|at| Instant::now() >= at) => table.expire(),
                None => table = self.shared.wait(table, deadline),
            }
        };
        drop(table);
        settle(&req, pushes, lost)
    }
}

/// Run the networked server: bind, accept workers, wait for the startup
/// barrier, then execute the ordinary `run` flow with training delegated
/// to the fleet. Returns exactly what the in-process `execute` would
/// print for the same argv.
pub fn serve(args: &ServeArgs) -> Result<String, String> {
    let listener = TcpListener::bind(&args.listen)
        .map_err(|e| format!("fedclustd: cannot bind {}: {}", args.listen, e))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    // Discovery line for scripts/tests (port 0 ⇒ OS-assigned).
    eprintln!("fedclustd: listening on {}", addr);

    let max_attempts = RetryPolicy::from_retries(args.run.retries as u32).max_attempts;
    let shared = Arc::new(Shared {
        table: Mutex::new(Coordinator::new(max_attempts)),
        changed: Condvar::new(),
        run_argv: args.run_argv.clone(),
    });

    {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || {
            for (n, stream) in listener.incoming().enumerate() {
                let Ok(stream) = stream else { break };
                let shared = Arc::clone(&shared);
                let id = n as u64 + 1;
                std::thread::spawn(move || handle_conn(&shared, stream, id));
            }
        });
    }

    // Startup barrier: don't start round 0 until the fleet is up.
    let mut table = shared.lock();
    while table.workers_seen < args.min_workers {
        table = shared.wait(table, None);
    }
    eprintln!(
        "fedclustd: {} worker(s) connected, starting run",
        table.workers_seen
    );
    drop(table);

    let trainer = NetTrainer {
        shared: Arc::clone(&shared),
        round_deadline: (args.round_timeout > 0.0)
            .then(|| Duration::from_secs_f64(args.round_timeout)),
    };
    let result = crate::execute(&args.run, Some(&trainer));

    // Let workers pull their `Done` before the process exits.
    let mut table = shared.lock();
    table.finish();
    shared.changed.notify_all();
    let grace = Instant::now() + Duration::from_secs(2);
    while table.workers_alive > 0 && Instant::now() < grace {
        table = shared.wait(table, Some(grace));
    }
    let s = &table.stats;
    eprintln!(
        "fedclustd: net-stats connects={} redispatched={} written_off={} busy={} dup={}",
        table.workers_seen, s.redispatched, s.written_off, s.busy_replies, s.duplicate_pushes
    );
    result
}
