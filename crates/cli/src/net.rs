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

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::io::ErrorKind;
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use fedclust_fl::codec;
use fedclust_fl::engine::{RemoteOutcome, RemoteRound, RemoteTrainer, RemoteUpdate};
use fedclust_proto::{
    read_msg, write_msg, Msg, ProtoError, PushBody, RetryPolicy, MODE_TRAIN, MODE_WARMUP,
    PROTO_VERSION,
};

use crate::net_args::ServeArgs;

/// How long an idle worker is told to wait before polling again.
const POLL_MILLIS: u32 = 20;
/// How long a `Busy` worker is told to hold its push.
const BUSY_MILLIS: u32 = 50;
/// Server-side read timeout; bounds how stale a dead connection can be.
const READ_TIMEOUT: Duration = Duration::from_millis(200);

/// One unit of leased work: train `client` at `round` from `state`.
#[derive(Clone)]
struct WorkItem {
    mode: u8,
    round: u32,
    client: u32,
    epochs: u32,
    prox_mu: Option<f32>,
    state: Arc<Vec<f32>>,
    residual: Vec<f32>,
    /// Dispatch attempts so far (bumped when a lease-holder dies).
    attempt: u32,
}

impl WorkItem {
    fn key(&self) -> (u32, u32) {
        (self.round, self.client)
    }

    fn to_msg(&self) -> Msg {
        Msg::Work {
            mode: self.mode,
            round: self.round,
            client: self.client,
            epochs: self.epochs,
            prox_mu: self.prox_mu,
            state: (*self.state).clone(),
            residual: self.residual.clone(),
        }
    }
}

/// An accepted upload, buffered until the trainer absorbs it.
struct PushRecord {
    round: u32,
    client: u32,
    steps: u32,
    weight: f32,
    body: PushBody,
}

/// Counters reported on stderr at shutdown. Deliberately *not* part of
/// `RunResult`: network weather must never perturb the deterministic
/// output.
#[derive(Default)]
struct NetStats {
    connects: u64,
    redispatched: u64,
    written_off: u64,
    busy_replies: u64,
    duplicate_pushes: u64,
}

#[derive(Default)]
struct NetState {
    next_worker: u32,
    workers_alive: usize,
    workers_seen: usize,
    queue: VecDeque<WorkItem>,
    /// `(round, client)` → the lease-holding connection and its item.
    leases: BTreeMap<(u32, u32), (u64, WorkItem)>,
    /// Accepted-but-unabsorbed uploads (bounded by `--max-inflight`).
    buffer: Vec<PushRecord>,
    /// Keys the current trainer call still needs.
    expected: BTreeSet<(u32, u32)>,
    /// Keys already accepted this call (duplicate suppression).
    accepted: BTreeSet<(u32, u32)>,
    /// Clients written off this call (retry budget or deadline).
    lost: BTreeSet<u32>,
    /// Set once the run has finished; workers get `Done` on next pull.
    done: bool,
    stats: NetStats,
}

struct Shared {
    state: Mutex<NetState>,
    cv: Condvar,
    policy: RetryPolicy,
    max_inflight: usize,
    run_argv: Vec<String>,
}

/// What the server replies to a `Push`. Pure decision function so the
/// backpressure rule is unit-testable without sockets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PushDecision {
    /// Record it and `Ack`.
    Accept,
    /// Already have it (or it is stale): `Ack` and discard — pushes are
    /// idempotent.
    Duplicate,
    /// Buffer full: typed `Busy`, worker retries the same push.
    Busy,
}

fn push_decision(
    expected: bool,
    already_accepted: bool,
    buffered: usize,
    max_inflight: usize,
) -> PushDecision {
    if !expected || already_accepted {
        PushDecision::Duplicate
    } else if buffered >= max_inflight {
        PushDecision::Busy
    } else {
        PushDecision::Accept
    }
}

/// Return every lease held by a dead connection to the queue (attempt
/// bumped) or write the client off once the retry budget is spent.
fn fail_leases(st: &mut NetState, conn_id: u64, policy: &RetryPolicy) {
    let keys: Vec<(u32, u32)> = st
        .leases
        .iter()
        .filter(|(_, (owner, _))| *owner == conn_id)
        .map(|(k, _)| *k)
        .collect();
    for key in keys {
        let (_, mut item) = st.leases.remove(&key).expect("lease vanished");
        if !st.expected.contains(&key) {
            continue; // stale lease from an already-settled unit
        }
        item.attempt += 1;
        if item.attempt >= policy.max_attempts {
            st.expected.remove(&key);
            st.lost.insert(key.1);
            st.stats.written_off += 1;
        } else {
            st.queue.push_back(item);
            st.stats.redispatched += 1;
        }
    }
}

/// Serve one worker connection: handshake, then answer pulls and pushes
/// until the connection dies or the run completes.
fn handle_conn(shared: &Arc<Shared>, mut stream: TcpStream, conn_id: u64) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));

    // Handshake: exact version match or a typed rejection.
    let hello = loop {
        match read_msg(&mut stream) {
            Ok(m) => break m,
            Err(ProtoError::Io(ErrorKind::WouldBlock))
            | Err(ProtoError::Io(ErrorKind::TimedOut)) => continue,
            Err(_) => return,
        }
    };
    match hello {
        Msg::Hello { version } if version == PROTO_VERSION => {}
        Msg::Hello { version } => {
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
        let mut st = shared.state.lock().unwrap();
        st.next_worker += 1;
        st.workers_alive += 1;
        st.workers_seen += 1;
        st.stats.connects += 1;
        shared.cv.notify_all();
        st.next_worker
    };
    if write_msg(
        &mut stream,
        &Msg::Welcome {
            worker_id,
            argv: shared.run_argv.clone(),
        },
    )
    .is_err()
    {
        let mut st = shared.state.lock().unwrap();
        st.workers_alive -= 1;
        return;
    }

    loop {
        let msg = match read_msg(&mut stream) {
            Ok(m) => m,
            Err(ProtoError::Io(ErrorKind::WouldBlock))
            | Err(ProtoError::Io(ErrorKind::TimedOut)) => continue,
            Err(_) => break, // dead or hostile connection
        };
        let reply = match msg {
            Msg::PullWork => {
                let mut st = shared.state.lock().unwrap();
                if let Some(item) = st.queue.pop_front() {
                    let work = item.to_msg();
                    st.leases.insert(item.key(), (conn_id, item));
                    work
                } else if st.done {
                    Msg::Done
                } else {
                    Msg::Wait {
                        millis: POLL_MILLIS,
                    }
                }
            }
            Msg::Push {
                mode: _,
                round,
                client,
                steps,
                weight,
                body,
            } => {
                let mut st = shared.state.lock().unwrap();
                let key = (round, client);
                let decision = push_decision(
                    st.expected.contains(&key),
                    st.accepted.contains(&key),
                    st.buffer.len(),
                    shared.max_inflight,
                );
                match decision {
                    PushDecision::Accept => {
                        st.accepted.insert(key);
                        st.leases.remove(&key);
                        st.buffer.push(PushRecord {
                            round,
                            client,
                            steps,
                            weight,
                            body,
                        });
                        shared.cv.notify_all();
                        Msg::Ack { round, client }
                    }
                    PushDecision::Duplicate => {
                        st.stats.duplicate_pushes += 1;
                        st.leases.remove(&key);
                        Msg::Ack { round, client }
                    }
                    PushDecision::Busy => {
                        st.stats.busy_replies += 1;
                        Msg::Busy {
                            millis: BUSY_MILLIS,
                        }
                    }
                }
            }
            // Anything else mid-session is a protocol violation.
            _ => break,
        };
        if write_msg(&mut stream, &reply).is_err() {
            break;
        }
    }

    let mut st = shared.state.lock().unwrap();
    st.workers_alive -= 1;
    fail_leases(&mut st, conn_id, &shared.policy);
    shared.cv.notify_all();
}

/// The [`RemoteTrainer`] that farms work out over the socket fleet.
struct NetTrainer {
    shared: Arc<Shared>,
    round_deadline: Option<Duration>,
}

impl NetTrainer {
    /// Queue one unit per client and block until every unit is settled
    /// (delivered, written off, or past the round deadline). Returns the
    /// collected pushes keyed by client.
    fn dispatch(&self, mode: u8, req: &RemoteRound) -> (BTreeMap<u32, PushRecord>, Vec<usize>) {
        let state = Arc::new(req.start_state.to_vec());
        let mut residuals: BTreeMap<usize, Vec<f32>> = req.residuals.iter().cloned().collect();
        {
            let mut st = self.shared.state.lock().unwrap();
            st.queue.clear();
            st.leases.clear();
            st.buffer.clear();
            st.expected.clear();
            st.accepted.clear();
            st.lost.clear();
            for &client in req.clients {
                let item = WorkItem {
                    mode,
                    round: req.round as u32,
                    client: client as u32,
                    epochs: req.epochs as u32,
                    prox_mu: req.prox_mu,
                    state: Arc::clone(&state),
                    residual: residuals.remove(&client).unwrap_or_default(),
                    attempt: 0,
                };
                st.expected.insert(item.key());
                st.queue.push_back(item);
            }
            self.shared.cv.notify_all();
        }

        let started = Instant::now();
        let mut collected: BTreeMap<u32, PushRecord> = BTreeMap::new();
        let mut st = self.shared.state.lock().unwrap();
        loop {
            for rec in std::mem::take(&mut st.buffer) {
                st.expected.remove(&(rec.round, rec.client));
                collected.insert(rec.client, rec);
            }
            if st.expected.is_empty() {
                break;
            }
            if let Some(deadline) = self.round_deadline {
                if started.elapsed() >= deadline {
                    // Deadline backstop: write off everything outstanding.
                    let remaining: Vec<(u32, u32)> = st.expected.iter().copied().collect();
                    for key in remaining {
                        st.lost.insert(key.1);
                        st.stats.written_off += 1;
                    }
                    st.expected.clear();
                    st.queue.clear();
                    st.leases.clear();
                    break;
                }
            }
            let (guard, _) = self
                .shared
                .cv
                .wait_timeout(st, Duration::from_millis(100))
                .unwrap();
            st = guard;
        }
        let lost: Vec<usize> = st.lost.iter().map(|&c| c as usize).collect();
        st.lost.clear();
        st.accepted.clear();
        (collected, lost)
    }
}

/// Whether a pushed update can be aggregated at all: its state (raw or
/// codec-decoded) has the length the server broadcast, and its weight is a
/// finite number ≥ 0. Zero is valid — the weight is the client's
/// training-set size (Eq. 2), and an in-process client with no data
/// uploads exactly that: received, billed, contributing nothing. A frame
/// that passed every checksum can still carry a wrong length or a
/// negative or non-finite weight — a worker-side bug or a hostile peer —
/// and the aggregation arithmetic downstream assumes neither.
fn usable(state: &[f32], weight: f32, expected_len: usize) -> bool {
    state.len() == expected_len && weight.is_finite() && weight >= 0.0
}

/// Turn the pushes collected for a training round into the outcome the
/// driver absorbs. A record that cannot be decoded or is not [`usable`] is
/// written off exactly like a worker that never answered: degrade, don't
/// die.
fn settle_train(
    req: &RemoteRound,
    mut collected: BTreeMap<u32, PushRecord>,
    mut lost: Vec<usize>,
) -> RemoteOutcome {
    let mut updates = Vec::with_capacity(collected.len());
    for &client in req.clients {
        let Some(rec) = collected.remove(&(client as u32)) else {
            continue;
        };
        let (state, wire_bytes, residual) = match rec.body {
            PushBody::Raw(v) => (Some(v), None, None),
            PushBody::Encoded { wire, residual } => (
                codec::decode(&wire, Some(req.start_state)).ok(),
                Some(wire.len()),
                Some(residual),
            ),
        };
        match state {
            Some(state) if usable(&state, rec.weight, req.start_state.len()) => {
                updates.push(RemoteUpdate {
                    client,
                    steps: rec.steps as usize,
                    weight: rec.weight,
                    state,
                    wire_bytes,
                    residual,
                })
            }
            _ => lost.push(client),
        }
    }
    lost.sort_unstable();
    lost.dedup();
    RemoteOutcome { updates, lost }
}

/// Turn the pushes collected for the FedClust warm-up into `(client,
/// state)` pairs. Warm-up uploads are always raw full states of the
/// broadcast length; anything else is a worker bug and the client is
/// simply omitted (the caller treats omissions as losses).
fn settle_warmup(
    req: &RemoteRound,
    mut collected: BTreeMap<u32, PushRecord>,
) -> Vec<(usize, Vec<f32>)> {
    let mut out = Vec::with_capacity(collected.len());
    for &client in req.clients {
        if let Some(PushBody::Raw(state)) = collected.remove(&(client as u32)).map(|r| r.body) {
            if state.len() == req.start_state.len() {
                out.push((client, state));
            }
        }
    }
    out
}

impl RemoteTrainer for NetTrainer {
    fn train_remote(&self, req: RemoteRound) -> RemoteOutcome {
        let (collected, lost) = self.dispatch(MODE_TRAIN, &req);
        settle_train(&req, collected, lost)
    }

    fn warmup_remote(&self, req: RemoteRound) -> Vec<(usize, Vec<f32>)> {
        let (collected, _lost) = self.dispatch(MODE_WARMUP, &req);
        settle_warmup(&req, collected)
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

    let policy = RetryPolicy::from_retries(args.run.retries as u32)
        .with_backoff_base(Duration::from_secs_f64(args.backoff_base));
    let shared = Arc::new(Shared {
        state: Mutex::new(NetState::default()),
        cv: Condvar::new(),
        policy,
        max_inflight: args.max_inflight,
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
    {
        let mut st = shared.state.lock().unwrap();
        while st.workers_seen < args.min_workers {
            let (guard, _) = shared
                .cv
                .wait_timeout(st, Duration::from_millis(200))
                .unwrap();
            st = guard;
        }
    }
    eprintln!("fedclustd: {} worker(s) connected, starting run", {
        shared.state.lock().unwrap().workers_seen
    });

    let trainer = NetTrainer {
        shared: Arc::clone(&shared),
        round_deadline: (args.round_timeout > 0.0)
            .then(|| Duration::from_secs_f64(args.round_timeout)),
    };
    let result = crate::execute(&args.run, Some(&trainer));

    // Let workers pull their `Done` before the process exits.
    {
        let mut st = shared.state.lock().unwrap();
        st.done = true;
        shared.cv.notify_all();
        let grace = Instant::now();
        while st.workers_alive > 0 && grace.elapsed() < Duration::from_secs(2) {
            let (guard, _) = shared
                .cv
                .wait_timeout(st, Duration::from_millis(50))
                .unwrap();
            st = guard;
        }
        let s = &st.stats;
        eprintln!(
            "fedclustd: net-stats connects={} redispatched={} written_off={} busy={} dup={}",
            s.connects, s.redispatched, s.written_off, s.busy_replies, s.duplicate_pushes
        );
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_decision_truth_table() {
        use PushDecision::*;
        // Stale / repeated pushes are idempotent no matter the buffer.
        assert_eq!(push_decision(false, false, 0, 4), Duplicate);
        assert_eq!(push_decision(true, true, 0, 4), Duplicate);
        assert_eq!(push_decision(false, true, 99, 1), Duplicate);
        // Fresh push with room: accepted.
        assert_eq!(push_decision(true, false, 3, 4), Accept);
        // Buffer at capacity: typed backpressure.
        assert_eq!(push_decision(true, false, 4, 4), Busy);
        assert_eq!(push_decision(true, false, 7, 4), Busy);
    }

    fn item(round: u32, client: u32) -> WorkItem {
        WorkItem {
            mode: MODE_TRAIN,
            round,
            client,
            epochs: 1,
            prox_mu: None,
            state: Arc::new(vec![0.0]),
            residual: Vec::new(),
            attempt: 0,
        }
    }

    #[test]
    fn dead_lease_requeues_until_budget_then_writes_off() {
        let policy = RetryPolicy::from_retries(1); // 2 attempts
        let mut st = NetState::default();
        st.expected.insert((3, 7));
        st.leases.insert((3, 7), (42, item(3, 7)));

        fail_leases(&mut st, 42, &policy);
        assert_eq!(st.queue.len(), 1, "first death requeues");
        assert!(st.lost.is_empty());
        assert_eq!(st.queue[0].attempt, 1);

        let requeued = st.queue.pop_front().unwrap();
        st.leases.insert((3, 7), (43, requeued));
        fail_leases(&mut st, 43, &policy);
        assert!(st.queue.is_empty(), "budget exhausted");
        assert_eq!(st.lost.iter().copied().collect::<Vec<_>>(), vec![7]);
        assert!(!st.expected.contains(&(3, 7)));
    }

    #[test]
    fn dead_lease_for_settled_unit_is_dropped_silently() {
        let policy = RetryPolicy::from_retries(3);
        let mut st = NetState::default();
        // Unit already settled: not in `expected` any more.
        st.leases.insert((1, 2), (9, item(1, 2)));
        fail_leases(&mut st, 9, &policy);
        assert!(st.queue.is_empty());
        assert!(st.lost.is_empty());
    }

    #[test]
    fn fail_leases_only_touches_the_dead_connection() {
        let policy = RetryPolicy::from_retries(2);
        let mut st = NetState::default();
        st.expected.insert((0, 1));
        st.expected.insert((0, 2));
        st.leases.insert((0, 1), (1, item(0, 1)));
        st.leases.insert((0, 2), (2, item(0, 2)));
        fail_leases(&mut st, 1, &policy);
        assert_eq!(st.queue.len(), 1);
        assert_eq!(st.queue[0].client, 1);
        assert!(st.leases.contains_key(&(0, 2)), "live lease untouched");
    }

    const START: [f32; 4] = [0.5; 4];

    fn round<'a>(clients: &'a [usize]) -> RemoteRound<'a> {
        RemoteRound {
            round: 0,
            clients,
            start_state: &START,
            prox_mu: None,
            epochs: 1,
            residuals: Vec::new(),
        }
    }

    /// Client 0 pushes a sound update, client 1 pushes `(weight, body)`.
    fn pushes(weight: f32, body: PushBody) -> BTreeMap<u32, PushRecord> {
        let record = |client, weight, body| PushRecord {
            round: 0,
            client,
            steps: 3,
            weight,
            body,
        };
        let sound = record(0, 2.0, PushBody::Raw(vec![1.0; 4]));
        BTreeMap::from([(0, sound), (1, record(1, weight, body))])
    }

    /// Settle a round in which client 1 pushed `(weight, body)`, require it
    /// written off, and finish the round the way the driver would.
    fn assert_written_off(weight: f32, body: PushBody) {
        let outcome = settle_train(&round(&[0, 1]), pushes(weight, body), Vec::new());
        assert_eq!(outcome.lost, vec![1]);
        let mut transport = fedclust_fl::Transport::new(&fedclust_fl::FlConfig::tiny(7));
        transport.record_remote_losses(&outcome.lost);
        let kept = transport.receive_remote(0, outcome.updates, Some(&START));
        let items: Vec<(&[f32], f32)> = kept.iter().map(|u| (&u.state[..], u.weight)).collect();
        assert_eq!(fedclust_fl::engine::weighted_average(&items), vec![1.0; 4]);
        assert_eq!(transport.telemetry().uplink_losses, 1);
    }

    #[test]
    fn short_raw_state_is_written_off() {
        assert_written_off(2.0, PushBody::Raw(vec![9.0; 3]));
    }

    #[test]
    fn long_codec_decoded_state_is_written_off() {
        let spec = codec::CodecSpec::parse("q8").unwrap();
        let body = PushBody::Encoded {
            wire: spec.encode(&[9.0; 5], None, None, None).wire,
            residual: Vec::new(),
        };
        assert_written_off(2.0, body);
    }

    #[test]
    fn nan_weight_is_written_off() {
        assert_written_off(f32::NAN, PushBody::Raw(vec![9.0; 4]));
    }

    #[test]
    fn infinite_and_negative_weights_are_written_off() {
        assert_written_off(f32::INFINITY, PushBody::Raw(vec![9.0; 4]));
        assert_written_off(-1.0, PushBody::Raw(vec![9.0; 4]));
    }

    /// A client with no training data pushes weight 0: a valid update that
    /// is received like any other and moves the average by nothing.
    #[test]
    fn zero_weight_is_kept_and_contributes_nothing() {
        let pushed = pushes(0.0, PushBody::Raw(vec![9.0; 4]));
        let outcome = settle_train(&round(&[0, 1]), pushed, Vec::new());
        assert_eq!(outcome.lost, Vec::<usize>::new());
        let updates = outcome.updates.iter();
        let items: Vec<(&[f32], f32)> = updates.map(|u| (&u.state[..], u.weight)).collect();
        assert_eq!(items.len(), 2);
        assert_eq!(
            fedclust_fl::engine::weighted_average_or(&items, &START),
            vec![1.0; 4]
        );
    }

    #[test]
    fn wrong_length_warmup_state_is_omitted() {
        let collected = pushes(2.0, PushBody::Raw(vec![9.0; 5]));
        let states = settle_warmup(&round(&[0, 1]), collected);
        assert_eq!(states, vec![(0, vec![1.0; 4])]);
    }
}
