//! The lease table of `fedclustd`: which work unit is where.
//!
//! A unit is born when a trainer call enqueues it and lives in exactly one
//! [`Phase`] until the call settles. The methods of [`Coordinator`] are the
//! only transitions:
//!
//! ```text
//!            pull(c)             push(c)              settle()
//!   Queued ----------> Leased(c) ----------> Delivered ---------> handed to the call
//!      ^                  |
//!      |  disconnect(c),  |  disconnect(c), budget spent            settle()
//!      +-- budget left ---+-------------------------------> WrittenOff ---------> lost
//!
//!   Queued, Leased(_) ---- expire() ----------------------> WrittenOff
//! ```
//!
//! Nothing here touches a socket, a clock or a lock: connection ids come in
//! as arguments, and `net.rs` decides when a round has run out of time and
//! who waits for whom. That is what lets the schedule test below drive
//! thousands of interleavings that real connections could only race for.

use std::collections::{BTreeMap, VecDeque};
use std::ops::Range;
use std::sync::Arc;

use fedclust_proto::Msg;

/// `(round, client)`: what names a unit on the wire and in the table.
pub(crate) type Key = (u32, u32);

/// A settled trainer call: its delivered uploads, keyed by client, and the
/// clients written off, ascending.
pub(crate) type Outcome = (BTreeMap<usize, Msg>, Vec<usize>);

/// One unit of leased work: train `client` at `round` from `state`, and
/// upload the slice `upload` of the trained state.
#[derive(Clone)]
pub(crate) struct Unit {
    pub round: u32,
    pub client: u32,
    pub epochs: u32,
    pub prox_mu: Option<f32>,
    pub upload: Range<u32>,
    pub state: Arc<Vec<f32>>,
    pub residual: Vec<f32>,
}

impl Unit {
    fn key(&self) -> Key {
        (self.round, self.client)
    }

    pub fn to_msg(&self) -> Msg {
        Msg::Work {
            round: self.round,
            client: self.client,
            epochs: self.epochs,
            prox_mu: self.prox_mu,
            upload: self.upload.clone(),
            state: (*self.state).clone(),
            residual: self.residual.clone(),
        }
    }
}

/// Where a unit is.
enum Phase {
    /// In the FIFO, waiting for a pull.
    Queued,
    /// Handed to this connection, which has not pushed it back yet.
    Leased(u64),
    /// Pushed back — the `Push` frame as it came — and held until the
    /// call settles.
    Delivered(Msg),
    /// Given up on: its lease-holders died `max_attempts` times, or the
    /// round deadline passed.
    WrittenOff,
}

struct Slot {
    unit: Unit,
    /// Leases of this unit that ended with the holder's death.
    attempts: u32,
    phase: Phase,
}

impl Slot {
    fn held_by(&self, conn: u64) -> bool {
        matches!(self.phase, Phase::Leased(holder) if holder == conn)
    }
}

/// What a `PullWork` is answered with.
pub(crate) enum Pull {
    /// A unit, now leased to the caller.
    Work(Unit),
    /// Nothing queued: wait for the next `enqueue` or `finish`.
    Parked,
    /// The run is over.
    Done,
}

/// What a `Push` is answered with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Pushed {
    /// Recorded: `Ack`.
    Accept,
    /// Not (or no longer) this connection's to deliver — already
    /// delivered, written off, settled, or never leased to it: `Ack` and
    /// discard, pushes are idempotent.
    Duplicate,
}

/// Counters reported on stderr at shutdown. Deliberately *not* part of
/// `RunResult`: network weather must never perturb the deterministic
/// output.
#[derive(Default)]
pub(crate) struct NetStats {
    pub redispatched: u64,
    pub written_off: u64,
    pub duplicate_pushes: u64,
}

#[derive(Default)]
pub(crate) struct Coordinator {
    /// Deaths of a lease-holder a unit survives before it is written off.
    max_attempts: u32,
    /// Every unit of the current trainer call.
    table: BTreeMap<Key, Slot>,
    /// The keys of the `Queued` units, oldest first.
    queue: VecDeque<Key>,
    /// Set once the run has finished; workers get `Done` on their next pull.
    done: bool,
    /// Workers whose connection is up.
    pub workers_alive: usize,
    /// Workers that ever completed the handshake.
    pub workers_seen: usize,
    pub stats: NetStats,
}

impl Coordinator {
    pub fn new(max_attempts: u32) -> Self {
        Coordinator {
            max_attempts,
            ..Coordinator::default()
        }
    }

    /// A worker completed the handshake; returns its id.
    pub fn connect(&mut self) -> u32 {
        self.workers_alive += 1;
        self.workers_seen += 1;
        self.workers_seen as u32
    }

    /// Connection `conn` of a connected worker is gone: every unit it held
    /// goes back to the queue, or is written off once its retry budget is
    /// spent. Units it already delivered are not its any more.
    pub fn disconnect(&mut self, conn: u64) {
        self.workers_alive -= 1;
        for (key, slot) in self.table.iter_mut().filter(|(_, s)| s.held_by(conn)) {
            slot.attempts += 1;
            if slot.attempts >= self.max_attempts {
                slot.phase = Phase::WrittenOff;
                self.stats.written_off += 1;
            } else {
                slot.phase = Phase::Queued;
                self.queue.push_back(*key);
                self.stats.redispatched += 1;
            }
        }
    }

    /// Start a trainer call. The table is empty: settling the previous call
    /// cleared it.
    pub fn enqueue(&mut self, units: impl IntoIterator<Item = Unit>) {
        for unit in units {
            self.queue.push_back(unit.key());
            let slot = Slot {
                unit,
                attempts: 0,
                phase: Phase::Queued,
            };
            self.table.insert(slot.unit.key(), slot);
        }
    }

    /// Lease the oldest queued unit to `conn`.
    pub fn pull(&mut self, conn: u64) -> Pull {
        match self.queue.pop_front() {
            Some(key) => {
                let slot = self.table.get_mut(&key).expect("queued key has a slot");
                slot.phase = Phase::Leased(conn);
                Pull::Work(slot.unit.clone())
            }
            None if self.done => Pull::Done,
            None => Pull::Parked,
        }
    }

    /// `conn` pushes `upload` for the unit `key`.
    pub fn push(&mut self, conn: u64, key: Key, upload: Msg) -> Pushed {
        match self.table.get_mut(&key) {
            Some(slot) if slot.held_by(conn) => {
                slot.phase = Phase::Delivered(upload);
                Pushed::Accept
            }
            _ => {
                self.stats.duplicate_pushes += 1;
                Pushed::Duplicate
            }
        }
    }

    /// The round deadline passed: write off everything still queued or
    /// leased. A wedged round degrades instead of hanging.
    pub fn expire(&mut self) {
        self.queue.clear();
        for slot in self.table.values_mut() {
            if matches!(slot.phase, Phase::Queued | Phase::Leased(_)) {
                slot.phase = Phase::WrittenOff;
                self.stats.written_off += 1;
            }
        }
    }

    /// Once every unit of the call was delivered or written off: hand the
    /// call its outcome and clear the table, so a late push finds no slot.
    pub fn settle(&mut self) -> Option<Outcome> {
        let open = |s: &Slot| matches!(s.phase, Phase::Queued | Phase::Leased(_));
        if self.table.values().any(open) {
            return None;
        }
        let mut outcome = Outcome::default();
        for ((_, client), slot) in std::mem::take(&mut self.table) {
            match slot.phase {
                Phase::Delivered(upload) => {
                    outcome.0.insert(client as usize, upload);
                }
                // Written off: nothing is open any more.
                _ => outcome.1.push(client as usize),
            }
        }
        Some(outcome)
    }

    /// The run is over: every pull from now on is answered `Done`.
    pub fn finish(&mut self) {
        self.done = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedclust_proto::PushBody;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeSet;

    fn unit(round: u32, client: u32) -> Unit {
        Unit {
            round,
            client,
            epochs: 1,
            prox_mu: None,
            upload: 0..1,
            state: Arc::new(vec![0.0]),
            residual: Vec::new(),
        }
    }

    fn upload() -> Msg {
        Msg::Push {
            mode: 0,
            round: 0,
            client: 0,
            steps: 1,
            weight: 1.0,
            body: PushBody::Raw(vec![0.0]),
        }
    }

    /// A coordinator with `retries` retries, `conns` connections (ids from
    /// 1) and round 0's clients `0..units` queued.
    fn coordinator(retries: u32, conns: u64, units: u32) -> Coordinator {
        let mut c = Coordinator::new(retries + 1);
        for _ in 0..conns {
            c.connect();
        }
        c.enqueue((0..units).map(|client| unit(0, client)));
        c
    }

    fn pull_key(c: &mut Coordinator, conn: u64) -> Key {
        match c.pull(conn) {
            Pull::Work(unit) => unit.key(),
            _ => panic!("connection {conn} expected work"),
        }
    }

    fn queued(c: &Coordinator) -> Vec<Key> {
        c.queue.iter().copied().collect()
    }

    fn written_off(c: &Coordinator) -> Vec<u32> {
        let lost = c.table.iter();
        let lost = lost.filter(|(_, s)| matches!(s.phase, Phase::WrittenOff));
        lost.map(|(key, _)| key.1).collect()
    }

    #[test]
    fn push_truth_table() {
        use Pushed::*;
        let mut c = coordinator(0, 2, 3);
        let first = pull_key(&mut c, 1);
        let other = pull_key(&mut c, 2);
        // Never enqueued, still queued, or someone else's lease: not this
        // connection's to deliver.
        assert_eq!(c.push(1, (9, 9), upload()), Duplicate);
        assert_eq!(c.push(1, (0, 2), upload()), Duplicate);
        assert_eq!(c.push(1, other, upload()), Duplicate);
        // Its own lease: accepted once, idempotent afterwards — also once
        // the call settled.
        assert_eq!(c.push(1, first, upload()), Accept);
        assert_eq!(c.push(1, first, upload()), Duplicate);
        assert_eq!(c.push(2, other, upload()), Accept);
        c.expire();
        assert!(c.settle().is_some());
        assert_eq!(c.push(1, first, upload()), Duplicate);
        assert_eq!(c.stats.duplicate_pushes, 5);
    }

    #[test]
    fn dead_lease_requeues_until_budget_then_writes_off() {
        let mut c = coordinator(1, 2, 1); // 2 attempts
        assert_eq!(pull_key(&mut c, 1), (0, 0));
        c.disconnect(1);
        assert_eq!(queued(&c), vec![(0, 0)], "first death requeues");
        assert!(written_off(&c).is_empty());
        assert_eq!(c.table[&(0, 0)].attempts, 1);

        assert_eq!(pull_key(&mut c, 2), (0, 0));
        c.disconnect(2);
        assert!(queued(&c).is_empty(), "budget exhausted");
        assert_eq!(c.settle(), Some((BTreeMap::new(), vec![0])));
        assert_eq!((c.stats.redispatched, c.stats.written_off), (1, 1));
    }

    #[test]
    fn death_after_delivery_costs_the_unit_nothing() {
        let mut c = coordinator(3, 1, 1);
        let key = pull_key(&mut c, 1);
        assert_eq!(c.push(1, key, upload()), Pushed::Accept);
        c.disconnect(1);
        assert!(queued(&c).is_empty());
        let (pushes, lost) = c.settle().expect("delivered");
        assert_eq!((pushes.len(), lost), (1, vec![]));
    }

    #[test]
    fn disconnect_only_touches_the_dead_connection() {
        let mut c = coordinator(2, 2, 2);
        let (dead, live) = (pull_key(&mut c, 1), pull_key(&mut c, 2));
        c.disconnect(1);
        assert_eq!(queued(&c), vec![dead]);
        assert!(c.table[&live].held_by(2), "live lease untouched");
        assert_eq!(c.workers_alive, 1);
    }

    /// The failover `net_cli` can only reach by racing subprocesses:
    /// lease → disconnect → requeue → another connection delivers → a late
    /// push for the same unit from a connection that is gone.
    #[test]
    fn failover_delivers_once_and_drops_the_late_duplicate() {
        let mut c = coordinator(2, 2, 2);
        let doomed = pull_key(&mut c, 1);
        let other = pull_key(&mut c, 2);
        assert!(matches!(c.pull(2), Pull::Parked), "nothing left to lease");
        c.disconnect(1);
        assert_eq!(pull_key(&mut c, 2), doomed, "the parked pull is answerable");
        assert_eq!(c.push(2, other, upload()), Pushed::Accept);
        assert_eq!(c.push(2, doomed, upload()), Pushed::Accept);
        assert_eq!(c.push(1, doomed, upload()), Pushed::Duplicate);
        let (pushes, lost) = c.settle().expect("both delivered");
        assert_eq!(
            (pushes.into_keys().collect::<Vec<_>>(), lost),
            (vec![0, 1], vec![])
        );
        assert_eq!(c.push(1, doomed, upload()), Pushed::Duplicate);
        assert_eq!((c.stats.redispatched, c.stats.duplicate_pushes), (1, 2));
        c.finish();
        assert!(matches!(c.pull(2), Pull::Done));
    }

    #[test]
    fn expire_writes_off_what_is_open_and_keeps_what_arrived() {
        let mut c = coordinator(2, 1, 3);
        let key = pull_key(&mut c, 1);
        assert_eq!(c.push(1, key, upload()), Pushed::Accept);
        let late = pull_key(&mut c, 1);
        c.expire();
        assert_eq!(written_off(&c), vec![1, 2], "leased and queued alike");
        assert!(matches!(c.pull(1), Pull::Parked));
        assert_eq!(c.push(1, late, upload()), Pushed::Duplicate);
        let (pushes, lost) = c.settle().expect("nothing open");
        assert_eq!((pushes.len(), lost), (1, vec![1, 2]));
    }

    /// What a schedule knows apart from the coordinator, to hold it to.
    #[derive(Default)]
    struct Model {
        live: Vec<u64>,
        next_conn: u64,
        /// Units each live connection pulled and has not had accepted.
        holding: BTreeMap<u64, Vec<Key>>,
        /// Connections whose last pull was parked.
        parked: BTreeSet<u64>,
        leases: BTreeMap<Key, u32>,
        accepted: BTreeSet<Key>,
    }

    impl Model {
        fn connect(&mut self, c: &mut Coordinator) -> u64 {
            c.connect();
            self.next_conn += 1;
            self.live.push(self.next_conn);
            self.next_conn
        }

        fn pull(&mut self, c: &mut Coordinator, conn: u64) {
            match c.pull(conn) {
                Pull::Work(unit) => {
                    self.parked.remove(&conn);
                    *self.leases.entry(unit.key()).or_default() += 1;
                    self.holding.entry(conn).or_default().push(unit.key());
                }
                Pull::Parked => {
                    self.parked.insert(conn);
                }
                Pull::Done => panic!("Done before finish"),
            }
        }

        /// `conn` pushes the oldest unit it holds, if it holds any.
        fn push(&mut self, c: &mut Coordinator, conn: u64) -> Option<()> {
            let key = *self.holding.get(&conn)?.first()?;
            match c.push(conn, key, upload()) {
                Pushed::Accept => assert!(self.accepted.insert(key), "{key:?} accepted twice"),
                Pushed::Duplicate => panic!("{key:?} is leased to {conn}, not a duplicate"),
            }
            self.holding.get_mut(&conn)?.remove(0);
            Some(())
        }

        /// `conn` pushes everything it holds.
        fn drain(&mut self, c: &mut Coordinator, conn: u64) {
            while self.push(c, conn).is_some() {}
        }

        fn kill(&mut self, c: &mut Coordinator, conn: u64) {
            c.disconnect(conn);
            self.live.retain(|&l| l != conn);
            self.holding.remove(&conn);
            self.parked.remove(&conn);
        }

        /// The coordinator and the model agree, and the table is sound.
        fn check(&self, c: &Coordinator) {
            let is_queued = |(_, s): &(&Key, &Slot)| matches!(s.phase, Phase::Queued);
            let in_table: Vec<Key> = c.table.iter().filter(is_queued).map(|(k, _)| *k).collect();
            let mut in_fifo: Vec<Key> = c.queue.iter().copied().collect();
            in_fifo.sort_unstable();
            assert_eq!(
                in_fifo, in_table,
                "the FIFO holds the queued keys, each once"
            );
            let mut leased = 0;
            for (key, slot) in &c.table {
                assert!(slot.attempts <= c.max_attempts);
                match slot.phase {
                    Phase::Leased(_) => leased += 1,
                    Phase::Delivered(_) => assert!(self.accepted.contains(key), "{key:?}"),
                    Phase::Queued | Phase::WrittenOff => {}
                }
            }
            // The leases are exactly what the connections believe they hold.
            for (&conn, keys) in &self.holding {
                leased -= keys.len();
                assert!(keys.iter().all(|key| c.table[key].held_by(conn)), "{conn}");
            }
            assert_eq!(leased, 0, "a lease nobody holds");
            assert_eq!(c.workers_alive, self.live.len());
        }
    }

    /// One seeded schedule: a few trainer calls of random size against a
    /// changing set of connections that pull, push, misbehave and die in
    /// random order, with the invariants checked after every step. Returns
    /// the units written off, so the suite can tell the rare paths were
    /// walked.
    fn run_schedule(seed: u64) -> u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let retries = rng.gen_range(0..=3u32);
        let mut c = Coordinator::new(retries + 1);
        let mut m = Model::default();
        for _ in 0..rng.gen_range(1..=4) {
            m.connect(&mut c);
        }
        for round in 0..rng.gen_range(1..=3u32) {
            // Mostly small rounds, some of up to 64 units.
            let units = match rng.gen_range(0..16u32) {
                0..=2 => rng.gen_range(1..=64u32),
                _ => rng.gen_range(1..=16u32),
            };
            c.enqueue((0..units).map(|client| unit(round, client)));
            if let Some(&conn) = m.parked.iter().next() {
                m.pull(&mut c, conn);
                assert!(!m.parked.contains(&conn), "enqueue answers a parked pull");
            }
            m.check(&c);
            for _ in 0..rng.gen_range(0..3 * units) {
                let conn = match m.live.len() {
                    0 => m.connect(&mut c),
                    n => m.live[rng.gen_range(0..n)],
                };
                match rng.gen_range(0..100u32) {
                    0..=39 => m.pull(&mut c, conn),
                    40..=79 => {
                        m.push(&mut c, conn);
                    }
                    // Misbehaviour: a unit that does not exist, one already
                    // accepted, one that is somebody else's or still queued.
                    80..=89 => {
                        let stale = m.accepted.iter().next().copied();
                        let foreign = c.table.iter().find(|(_, s)| !s.held_by(conn));
                        let foreign = foreign.map(|(k, _)| *k);
                        for key in [Some((99, 0)), stale, foreign].into_iter().flatten() {
                            assert_eq!(c.push(conn, key, upload()), Pushed::Duplicate);
                        }
                    }
                    90..=94 => {
                        m.kill(&mut c, conn);
                        if rng.gen_bool(0.7) {
                            m.connect(&mut c);
                        }
                    }
                    95 => {
                        c.expire();
                        // What the connections still hold is nobody's now.
                        for (&conn, keys) in &m.holding {
                            for &key in keys {
                                assert_eq!(c.push(conn, key, upload()), Pushed::Duplicate);
                            }
                        }
                        m.holding.clear();
                    }
                    _ => {}
                }
                m.check(&c);
            }
            // Whatever the schedule left behind: once every other
            // connection delivers what it holds or dies, one connection
            // that keeps pulling settles the call.
            for conn in m.live.clone() {
                if rng.gen_bool(0.5) {
                    m.drain(&mut c, conn);
                } else {
                    m.kill(&mut c, conn);
                }
            }
            let closer = m.connect(&mut c);
            let mut steps = 0;
            let (pushes, lost) = loop {
                if let Some(outcome) = c.settle() {
                    break outcome;
                }
                m.pull(&mut c, closer);
                m.push(&mut c, closer);
                m.check(&c);
                steps += 1;
                assert!(
                    steps <= 2 * units + 2,
                    "a pulling connection settles the call"
                );
            };
            // Every unit resolved exactly once, within its lease budget.
            assert_eq!(pushes.len() + lost.len(), units as usize);
            for client in 0..units {
                let key = (round, client);
                let delivered = pushes.contains_key(&(client as usize));
                assert_eq!(
                    delivered,
                    m.accepted.contains(&key),
                    "{key:?} delivered iff accepted"
                );
                assert!(
                    delivered ^ lost.contains(&(client as usize)),
                    "{key:?} must be delivered xor written off"
                );
                let leases = m.leases.get(&key).copied().unwrap_or(0);
                assert!(leases <= retries + 1, "{key:?} leased {leases} times");
            }
            m.pull(&mut c, closer);
            assert!(m.parked.contains(&closer), "a settled call has no work");
        }
        c.finish();
        for &conn in &m.parked {
            assert!(
                matches!(c.pull(conn), Pull::Done),
                "finish answers a parked pull"
            );
        }
        c.stats.written_off
    }

    #[test]
    fn seeded_schedules_keep_every_invariant() {
        let mut written_off = 0;
        for seed in 0..2000 {
            let outcome = std::panic::catch_unwind(|| run_schedule(seed));
            let Ok(w) = outcome else {
                panic!("schedule failed, seed {seed}");
            };
            written_off += w;
        }
        assert!(
            written_off > 0,
            "rare paths not walked: written off {written_off}"
        );
    }
}
