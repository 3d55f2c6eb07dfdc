//! `fedclustd` — the networked federation server.
//!
//! The server owns everything except local training: sampling, fault
//! injection, codec accounting, aggregation, evaluation, and
//! checkpointing all run in-process exactly as the simulation does. Only
//! the per-client SGD is delegated: [`serve`] hands a
//! [`RemoteTrainer`] to [`crate::execute`],
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
//! Which unit is where is the `Coordinator`'s business: a plain value
//! whose methods are the protocol's transitions. One thread owns it (the
//! `Owner`); every other thread only does I/O and sends the owner an
//! `Event` on one channel. A connection thread forwards each frame and
//! writes back the one reply the owner sends it; the trainer call sends its
//! units and blocks on its outcome. Nobody polls: a worker with nothing to
//! do stays parked in its `PullWork` until there is work, the run is over,
//! or `READ_TIMEOUT` asks for a keep-alive.

use std::collections::BTreeMap;
use std::io::ErrorKind;
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
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

/// A trainer call's delivered uploads, keyed by client, and the clients
/// written off.
type Outcome = (BTreeMap<usize, Msg>, Vec<usize>);

/// What the other threads tell the [`Owner`].
enum Event {
    /// Connection `conn` completed the handshake; its replies go to `reply`,
    /// the first being `Welcome`.
    Up { conn: u64, reply: Sender<Msg> },
    /// Connection `conn` sent `msg` (`PullWork` or `Push`) and waits for
    /// the reply.
    Frame { conn: u64, msg: Msg },
    /// Connection `conn` is gone.
    Down { conn: u64 },
    /// A trainer call: queue `units` and send the outcome to `reply` once
    /// it is settled, writing off what is left at `deadline`.
    Round {
        units: Vec<Unit>,
        deadline: Option<Instant>,
        reply: Sender<Outcome>,
    },
    /// The run is over: answer pulls `Done`, and wait for the fleet to
    /// leave until the grace instant.
    Finish(Instant),
}

/// The pending trainer call.
struct Call {
    deadline: Option<Instant>,
    pushes: BTreeMap<usize, Msg>,
    reply: Sender<Outcome>,
}

/// The thread that owns the lease table, and everyone waiting on it.
#[derive(Default)]
struct Owner {
    table: Coordinator,
    run_argv: Vec<String>,
    /// Where each connection's replies go.
    replies: BTreeMap<u64, Sender<Msg>>,
    /// Connections whose `PullWork` found nothing queued, with the instant
    /// their keep-alive `Wait` is due.
    parked: BTreeMap<u64, Instant>,
    call: Option<Call>,
    grace: Option<Instant>,
}

impl Owner {
    /// The run is over, and the fleet has left or the grace has run out.
    fn finished(&self) -> bool {
        self.grace
            .is_some_and(|at| self.table.workers_alive == 0 || Instant::now() >= at)
    }

    /// Apply the next event, or wait for the earliest deadline without one;
    /// then answer every waiter the table can now satisfy.
    fn step(&mut self, events: &Receiver<Event>) {
        let due = [self.call.as_ref().and_then(|c| c.deadline), self.grace];
        let wake = self.parked.values().chain(due.iter().flatten()).min();
        let event = match wake.map(|at| at.saturating_duration_since(Instant::now())) {
            Some(left) => events.recv_timeout(left).ok(),
            None => events.recv().ok(),
        };
        if let Some(event) = event {
            self.apply(event);
        }
        self.answer();
    }

    fn apply(&mut self, event: Event) {
        match event {
            Event::Up { conn, reply } => {
                let worker_id = self.table.connect();
                let argv = self.run_argv.clone();
                let _ = reply.send(Msg::Welcome { worker_id, argv });
                self.replies.insert(conn, reply);
            }
            Event::Frame { conn, msg } => match msg {
                Msg::Push { round, client, .. } => {
                    let reply = match self.table.push(conn, (round, client), msg) {
                        Pushed::Accept | Pushed::Duplicate => Msg::Ack { round, client },
                        Pushed::Busy => Msg::Busy {
                            millis: BUSY_MILLIS,
                        },
                    };
                    self.reply(conn, reply);
                }
                // A `PullWork`: answered below, now or once it can be.
                _ => {
                    self.parked.insert(conn, Instant::now() + READ_TIMEOUT);
                }
            },
            Event::Down { conn } => {
                self.table.disconnect(conn);
                self.replies.remove(&conn);
                self.parked.remove(&conn);
            }
            Event::Round {
                units,
                deadline,
                reply,
            } => {
                self.table.enqueue(units);
                self.call = Some(Call {
                    deadline,
                    pushes: BTreeMap::new(),
                    reply,
                });
            }
            Event::Finish(grace) => {
                self.table.finish();
                self.grace = Some(grace);
            }
        }
    }

    /// Absorb every delivered upload into the call and hand the call its
    /// outcome once settled, writing off what is left past its deadline;
    /// then answer each parked pull that has work, `Done`, or a keep-alive
    /// due.
    fn answer(&mut self) {
        let now = Instant::now();
        if let Some(mut call) = self.call.take() {
            call.pushes.extend(self.table.take_delivered());
            if call.deadline.is_some_and(|at| now >= at) {
                self.table.expire();
            }
            match self.table.settled() {
                Some(lost) => drop(call.reply.send((call.pushes, lost))),
                None => self.call = Some(call),
            }
        }
        let parked = std::mem::take(&mut self.parked);
        for (conn, keep_alive) in parked {
            let reply = match self.table.pull(conn) {
                Pull::Work(unit) => unit.to_msg(),
                Pull::Done => Msg::Done,
                // Parked long enough: the worker hears `Wait`, pulls again
                // at once, and knows the server is alive.
                Pull::Parked if now >= keep_alive => Msg::Wait { millis: 0 },
                Pull::Parked => {
                    self.parked.insert(conn, keep_alive);
                    continue;
                }
            };
            self.reply(conn, reply);
        }
    }

    fn reply(&self, conn: u64, msg: Msg) {
        if let Some(reply) = self.replies.get(&conn) {
            let _ = reply.send(msg);
        }
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

/// Serve one worker connection: shake hands, then write the owner's
/// replies and forward the worker's frames, one for one, until the
/// connection dies or the owner is gone.
fn handle_conn(events: &Sender<Event>, mut stream: TcpStream, conn: u64) {
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
    let (reply, replies) = mpsc::channel();
    let _ = events.send(Event::Up { conn, reply });
    while let Ok(reply) = replies.recv() {
        if write_msg(&mut stream, &reply).is_err() {
            break;
        }
        match next_msg(&mut stream) {
            Some(msg @ (Msg::PullWork | Msg::Push { .. })) => {
                let _ = events.send(Event::Frame { conn, msg });
            }
            // Dead, hostile, or a protocol violation.
            _ => break,
        }
    }
    let _ = events.send(Event::Down { conn });
}

/// The [`RemoteTrainer`] that farms work out over the socket fleet.
struct NetTrainer {
    events: Sender<Event>,
    round_deadline: Option<Duration>,
}

impl RemoteTrainer for NetTrainer {
    /// Queue one unit per job and block until the owner reports every unit
    /// settled: delivered, written off, or past the round deadline.
    /// Consecutive jobs that start from the same slice share one copy of it.
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
        let (reply, outcome) = mpsc::channel();
        let _ = self.events.send(Event::Round {
            units,
            deadline,
            reply,
        });
        let (pushes, lost) = outcome.recv().expect("the lease table's owner thread died");
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
    let mut owner = Owner {
        table: Coordinator::new(max_attempts),
        run_argv: args.run_argv.clone(),
        ..Owner::default()
    };
    let (events, inbox) = mpsc::channel();
    let acceptor = events.clone();
    std::thread::spawn(move || {
        for (n, stream) in listener.incoming().enumerate() {
            let Ok(stream) = stream else { break };
            let events = acceptor.clone();
            let id = n as u64 + 1;
            std::thread::spawn(move || handle_conn(&events, stream, id));
        }
    });

    // Startup barrier: don't start round 0 until the fleet is up.
    while owner.table.workers_seen < args.min_workers {
        owner.step(&inbox);
    }
    eprintln!(
        "fedclustd: {} worker(s) connected, starting run",
        owner.table.workers_seen
    );
    let owner = std::thread::spawn(move || {
        while !owner.finished() {
            owner.step(&inbox);
        }
        owner.table
    });

    let trainer = NetTrainer {
        events: events.clone(),
        round_deadline: (args.round_timeout > 0.0)
            .then(|| Duration::from_secs_f64(args.round_timeout)),
    };
    let result = crate::execute(&args.run, Some(&trainer));

    // Let workers pull their `Done` before the process exits.
    let _ = events.send(Event::Finish(Instant::now() + Duration::from_secs(2)));
    let table = owner.join().expect("the lease table's owner thread died");
    let s = &table.stats;
    eprintln!(
        "fedclustd: net-stats connects={} redispatched={} written_off={} busy={} dup={}",
        table.workers_seen, s.redispatched, s.written_off, s.busy_replies, s.duplicate_pushes
    );
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedclust_proto::{PushBody, MODE_TRAIN};

    /// An [`Owner`] and both ends of its channel, stepped by the test
    /// thread: each event is applied, and its replies are waiting, by the
    /// time the call that sent it returns.
    struct Harness {
        owner: Owner,
        events: Sender<Event>,
        inbox: Receiver<Event>,
    }

    impl Harness {
        /// Units get `retries` + 1 leases.
        fn new(retries: u32) -> Self {
            let owner = Owner {
                table: Coordinator::new(retries + 1),
                ..Owner::default()
            };
            let (events, inbox) = mpsc::channel();
            Harness {
                owner,
                events,
                inbox,
            }
        }

        fn send(&mut self, event: Event) {
            self.events.send(event).unwrap();
            self.owner.step(&self.inbox);
        }

        /// Connection `conn` shakes hands; its replies arrive on the result.
        fn up(&mut self, conn: u64) -> Receiver<Msg> {
            let (reply, replies) = mpsc::channel();
            self.send(Event::Up { conn, reply });
            assert!(matches!(replies.try_recv(), Ok(Msg::Welcome { .. })));
            replies
        }

        fn pull(&mut self, conn: u64) {
            let msg = Msg::PullWork;
            self.send(Event::Frame { conn, msg });
        }

        fn push(&mut self, conn: u64, client: u32) {
            let msg = Msg::Push {
                mode: MODE_TRAIN,
                round: 0,
                client,
                steps: 1,
                weight: 1.0,
                body: PushBody::Raw(vec![client as f32]),
            };
            self.send(Event::Frame { conn, msg });
        }

        /// A trainer call for round 0's `clients`; its outcome arrives on
        /// the result.
        fn round(&mut self, clients: &[u32], deadline: Option<Instant>) -> Receiver<Outcome> {
            let units = clients.iter().map(|&client| Unit {
                mode: MODE_TRAIN,
                round: 0,
                client,
                epochs: 1,
                prox_mu: None,
                state: Arc::new(vec![0.0]),
                residual: Vec::new(),
            });
            let (reply, outcome) = mpsc::channel();
            let units = units.collect();
            self.send(Event::Round {
                units,
                deadline,
                reply,
            });
            outcome
        }
    }

    /// The client of the unit `replies` holds next.
    fn work(replies: &Receiver<Msg>) -> u32 {
        match replies.try_recv() {
            Ok(Msg::Work { client, .. }) => client,
            other => panic!("expected work, got {other:?}"),
        }
    }

    #[test]
    fn a_parked_pull_is_answered_by_the_round() {
        let mut h = Harness::new(0);
        let replies = h.up(1);
        h.pull(1);
        assert!(
            replies.try_recv().is_err(),
            "nothing queued: the pull parks"
        );
        let outcome = h.round(&[3], None);
        assert_eq!(work(&replies), 3);
        assert!(outcome.try_recv().is_err(), "the unit is out on lease");
        h.push(1, 3);
        assert_eq!(
            replies.try_recv(),
            Ok(Msg::Ack {
                round: 0,
                client: 3
            })
        );
        let (pushes, lost) = outcome.try_recv().expect("settled");
        assert_eq!(
            (pushes.keys().copied().collect::<Vec<_>>(), lost),
            (vec![3], vec![])
        );
    }

    #[test]
    fn a_dead_lease_holder_fails_over_to_the_other_connection() {
        let mut h = Harness::new(1);
        let (first, second) = (h.up(1), h.up(2));
        let outcome = h.round(&[0, 1], None);
        h.pull(1);
        h.pull(2);
        assert_eq!((work(&first), work(&second)), (0, 1));
        h.send(Event::Down { conn: 1 });
        h.push(2, 1);
        assert_eq!(
            second.try_recv(),
            Ok(Msg::Ack {
                round: 0,
                client: 1
            })
        );
        h.pull(2);
        assert_eq!(work(&second), 0, "the dead lease is requeued");
        h.push(2, 0);
        let (pushes, lost) = outcome.try_recv().expect("settled");
        assert_eq!((pushes.len(), lost), (2, vec![]));
        assert_eq!(h.owner.table.stats.redispatched, 1);
    }

    #[test]
    fn an_idle_pull_hears_a_keep_alive() {
        let mut h = Harness::new(0);
        let replies = h.up(1);
        let start = Instant::now();
        h.pull(1);
        h.owner.step(&h.inbox);
        assert_eq!(replies.try_recv(), Ok(Msg::Wait { millis: 0 }));
        assert!(start.elapsed() >= READ_TIMEOUT);
    }

    #[test]
    fn the_round_deadline_writes_off_what_is_left() {
        let mut h = Harness::new(0);
        let outcome = h.round(&[5], Some(Instant::now()));
        let (pushes, lost) = outcome.try_recv().expect("settled at once");
        assert_eq!((pushes.len(), lost), (0, vec![5]));
        assert_eq!(h.owner.table.stats.written_off, 1);
    }

    #[test]
    fn finish_answers_done_and_waits_for_the_fleet() {
        let mut h = Harness::new(0);
        let replies = h.up(1);
        h.pull(1);
        h.send(Event::Finish(Instant::now() + Duration::from_secs(60)));
        assert_eq!(replies.try_recv(), Ok(Msg::Done));
        assert!(!h.owner.finished(), "a worker is still connected");
        h.send(Event::Down { conn: 1 });
        assert!(h.owner.finished());
    }
}
