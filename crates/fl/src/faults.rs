//! Deterministic fault injection: the transport layer between server and
//! clients.
//!
//! Real deployments of one-shot clustered FL never aggregate from every
//! client they contacted: links drop, clients straggle past the round
//! deadline, and uploads arrive corrupted. This module models those faults
//! *deterministically* — every fault decision derives from
//! `(seed, round, client)` RNG streams, so a faulty run replays
//! bit-identically regardless of thread schedule — and centralises the
//! server's resilience policy (bounded downlink retry, deadline-based
//! partial aggregation, non-finite/oversized-update quarantine).
//!
//! # Communication charging policy
//!
//! [`CommMeter`] counts bytes that were put on the wire, not bytes that
//! were usefully received:
//!
//! * every downlink **attempt** (the first transmission and each retry) is
//!   charged;
//! * every uplink is charged, **including** uploads that are lost in
//!   flight, arrive past the round deadline, or are quarantined on
//!   arrival — the client transmitted them either way;
//! * a client that is unreachable after all retries does no local work and
//!   uploads nothing, so only its failed downlink attempts are charged.
//!
//! This keeps Table-5-style Mb numbers honest under faults: the reported
//! cost is what the network actually carried.
//!
//! # Liveness guarantee
//!
//! Mirroring the pre-round dropout model (`sample_clients` never drops
//! every client), [`Transport::broadcast`] always delivers to at least one
//! client per call. Uplinks carry no such guarantee: a round (or a cluster
//! within a round) can lose every update, and the aggregation call sites
//! then carry the previous model forward instead of panicking (see
//! `engine::weighted_average_or`).
//!
//! With [`FaultPlan::none()`] the transport is a pass-through: it charges
//! exactly the bytes the pre-fault code charged, delivers every payload
//! untouched, and draws no RNG values, so runs are byte-identical to the
//! fault-free engine.
//!
//! # Upload compression
//!
//! The transport also applies the run's [`CodecSpec`] to every upload it
//! mediates: the payload is encoded against the shared reference state,
//! the meter is charged the **encoded wire bytes** (header + payload +
//! checksum), and the server-side aggregation sees the decoded
//! reconstruction. Codec work happens *before* the fault plan draws the
//! upload's fate, so loss and corruption act on what actually crossed the
//! wire, and top-k error-feedback residuals (persistent per-client state,
//! spilled through checkpoints) advance whether or not the message
//! survives — the client cannot know. [`CodecSpec::none()`] bypasses all
//! of it: no header, no transform, no RNG draw, byte-identical to the
//! uncompressed path.

use crate::codec::{self, BaseCodec, CodecSpec};
use crate::comm::CommMeter;
use crate::config::FlConfig;
use crate::engine::{ClientUpdate, RemoteUpdate};
use fedclust_proto::RetryPolicy;
use fedclust_tensor::rng::{derive, streams};
use rand::Rng;
use std::collections::BTreeMap;

/// The most downlink retransmissions a [`FaultPlan`] allows: `--retries`
/// refuses more, and [`FaultPlan::sanitized`] clamps to it, so `N + 1`
/// attempts hold in process and over TCP alike.
pub const MAX_DOWNLINK_RETRIES: usize = 16;

/// Per-run fault model, derived deterministically from
/// `(seed, round, client)` streams. All probabilities are in `[0, 1]`;
/// [`FaultPlan::none()`] (= `Default`) disables everything.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Probability that one downlink transmission attempt to one client
    /// fails (each retry redraws independently).
    pub downlink_loss: f32,
    /// Retransmissions allowed after the first failed downlink attempt
    /// before the client is written off for the round.
    pub max_downlink_retries: usize,
    /// Probability that one client upload is lost in flight.
    pub uplink_loss: f32,
    /// Probability that a client straggles this round (finishes late).
    pub straggler_rate: f32,
    /// Mean extra latency of a straggler, in round-deadline units
    /// (exponentially distributed).
    pub straggler_mean_delay: f32,
    /// Server-side round deadline. A straggler whose latency exceeds this
    /// misses the round and its update is dropped. `0` disables the
    /// deadline (stragglers always make it).
    pub round_deadline: f32,
    /// Probability that an upload arrives corrupted: NaN injection, Inf
    /// injection, or a stale (unchanged) state.
    pub corruption_rate: f32,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            downlink_loss: 0.0,
            max_downlink_retries: 2,
            uplink_loss: 0.0,
            straggler_rate: 0.0,
            straggler_mean_delay: 1.0,
            round_deadline: 1.0,
            corruption_rate: 0.0,
        }
    }
}

impl FaultPlan {
    /// The fault-free plan: transport becomes a byte-identical pass-through.
    pub fn none() -> Self {
        Self::default()
    }

    /// Whether any fault can actually fire under this plan. Stragglers
    /// only matter when a deadline can cut them off.
    pub fn is_active(&self) -> bool {
        self.downlink_loss > 0.0
            || self.uplink_loss > 0.0
            || self.corruption_rate > 0.0
            || (self.straggler_rate > 0.0 && self.round_deadline > 0.0)
    }

    /// A copy with every probability clamped into `[0, 1]` and the latency
    /// model made non-negative, so arbitrary (e.g. property-test) plans
    /// are safe to run.
    pub fn sanitized(&self) -> Self {
        let p = |v: f32| {
            if v.is_finite() {
                v.clamp(0.0, 1.0)
            } else {
                0.0
            }
        };
        let nn = |v: f32| if v.is_finite() { v.max(0.0) } else { 0.0 };
        FaultPlan {
            downlink_loss: p(self.downlink_loss),
            max_downlink_retries: self.max_downlink_retries.min(MAX_DOWNLINK_RETRIES),
            uplink_loss: p(self.uplink_loss),
            straggler_rate: p(self.straggler_rate),
            straggler_mean_delay: nn(self.straggler_mean_delay),
            round_deadline: nn(self.round_deadline),
            corruption_rate: p(self.corruption_rate),
        }
    }
}

/// Exit code of a process killed by an armed [`CrashPlan`]. Distinct from
/// the CLI's error exits (1: run error, 2: parse error) so crash-recovery
/// tests can tell an injected death from a genuine failure.
pub const CRASH_EXIT_CODE: i32 = 86;

/// Deterministic process-death injection, the process-level sibling of
/// [`FaultPlan`]'s message faults. Armed through
/// [`crate::checkpoint::Checkpointer::crash`], it kills the process (via
/// `std::process::exit` with [`CRASH_EXIT_CODE`]) at a precise point in
/// the round loop so crash-recovery tests can exercise resume paths
/// reproducibly.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CrashPlan {
    /// Die at the end of this round (0-based), after its checkpoint is
    /// written — unless `mid_write` tears that very write.
    pub after_round: Option<usize>,
    /// Die halfway through writing the checkpoint instead of after it:
    /// only part of the image reaches the `*.tmp` file, simulating a power
    /// cut mid-write. The previous generation must survive untouched.
    pub mid_write: bool,
}

impl CrashPlan {
    /// No crash: the plan never fires.
    pub fn none() -> Self {
        Self::default()
    }

    /// Whether this plan will kill the process at some point.
    pub fn is_armed(&self) -> bool {
        self.after_round.is_some()
    }
}

/// Counters of everything the fault layer did in one run; part of
/// [`crate::metrics::RunResult`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FaultTelemetry {
    /// Total fault events: unreachable clients, lost uploads, deadline
    /// misses, and corruptions.
    pub faults_injected: usize,
    /// Updates rejected by the server's pre-aggregation screen (non-finite
    /// values or wrong payload size).
    pub updates_quarantined: usize,
    /// Downlink retransmissions (attempts beyond each first attempt).
    pub retries: usize,
    /// Clients unreachable after every downlink retry.
    pub downlink_failures: usize,
    /// Uploads lost in flight.
    pub uplink_losses: usize,
    /// Straggler uploads that missed the round deadline.
    pub deadline_misses: usize,
}

/// What happened to one upload in flight.
enum UplinkFate {
    /// Arrived intact.
    Arrived,
    /// Lost (in flight, or past the deadline).
    Lost,
    /// Arrived corrupted; the payload has been mutated in place.
    Corrupted,
}

/// The fault-injecting transport between the server's round loop and its
/// clients. Owns the run's [`CommMeter`] and fault telemetry.
#[derive(Debug, Clone)]
pub struct Transport {
    plan: FaultPlan,
    seed: u64,
    active: bool,
    codec: CodecSpec,
    /// Per-client top-k error-feedback residuals — persistent across
    /// rounds, serialized into checkpoints, deterministic because every
    /// upload is encoded on the server thread in client order.
    residuals: BTreeMap<usize, Vec<f32>>,
    meter: CommMeter,
    telemetry: FaultTelemetry,
}

impl Transport {
    /// Transport for one run, with the plan, codec, and root seed taken
    /// from the experiment config.
    pub fn new(cfg: &FlConfig) -> Self {
        let plan = cfg.faults.sanitized();
        Transport {
            active: plan.is_active(),
            plan,
            seed: cfg.seed,
            codec: cfg.codec,
            residuals: BTreeMap::new(),
            meter: CommMeter::new(),
            telemetry: FaultTelemetry::default(),
        }
    }

    /// The codec this transport applies to uploads.
    pub fn codec(&self) -> CodecSpec {
        self.codec
    }

    /// The per-client error-feedback residuals, sorted by client — the
    /// exact shape checkpoints persist so kill-and-resume round-trips
    /// compression state bit-exactly.
    pub fn codec_residuals(&self) -> Vec<(usize, Vec<f32>)> {
        self.residuals
            .iter()
            .map(|(client, r)| (*client, r.clone()))
            .collect()
    }

    /// The run's communication meter.
    pub fn meter(&self) -> &CommMeter {
        &self.meter
    }

    /// Mutable meter access, for protocol-specific charges the transport
    /// does not mediate (e.g. PACFL's pre-federation basis uploads).
    pub fn meter_mut(&mut self) -> &mut CommMeter {
        &mut self.meter
    }

    /// Fault counters so far.
    pub fn telemetry(&self) -> FaultTelemetry {
        self.telemetry
    }

    /// Reinstall the meter, telemetry, and codec residuals captured in a
    /// checkpoint, so a resumed run's communication accounting *and*
    /// compression state continue exactly where the interrupted run left
    /// off.
    pub fn restore_comm_state(
        &mut self,
        meter: CommMeter,
        telemetry: FaultTelemetry,
        residuals: Vec<(usize, Vec<f32>)>,
    ) {
        self.meter = meter;
        self.telemetry = telemetry;
        self.residuals = residuals.into_iter().collect();
    }

    /// The bounded-retry policy implied by this run's fault plan — the
    /// *same* [`RetryPolicy`] type the networked transport sleeps on, so
    /// `--retries N` means `N + 1` attempts identically in-process (where
    /// backoff is virtual) and over TCP (where it is slept).
    pub fn retry_policy(&self) -> RetryPolicy {
        RetryPolicy::from_retries(self.plan.max_downlink_retries as u32)
    }

    /// Send `scalars` values down to each of `clients`, retrying each
    /// failed transmission per [`Transport::retry_policy`]. Returns the
    /// clients that received the payload (always at least one, in input
    /// order).
    pub fn broadcast(&mut self, round: usize, clients: &[usize], scalars: usize) -> Vec<usize> {
        if !self.active || self.plan.downlink_loss <= 0.0 {
            for _ in clients {
                self.meter.down(scalars);
            }
            return clients.to_vec();
        }
        let policy = self.retry_policy();
        let mut delivered = Vec::with_capacity(clients.len());
        for &client in clients {
            let mut rng = derive(
                self.seed,
                &[streams::FAULT_DOWNLINK, round as u64, client as u64],
            );
            let mut ok = false;
            for attempt in policy.attempts() {
                self.meter.down(scalars);
                if attempt > 0 {
                    self.telemetry.retries += 1;
                }
                if rng.gen::<f32>() >= self.plan.downlink_loss {
                    ok = true;
                    break;
                }
            }
            if ok {
                delivered.push(client);
            } else {
                self.telemetry.downlink_failures += 1;
                self.telemetry.faults_injected += 1;
            }
        }
        if delivered.is_empty() {
            // Liveness: the round must reach someone (mirrors the dropout
            // model's at-least-one-survivor rule). The first client's last
            // retry is deemed to have succeeded after all; roll back its
            // failure accounting.
            self.telemetry.downlink_failures -= 1;
            self.telemetry.faults_injected -= 1;
            delivered.push(clients[0]);
        }
        delivered
    }

    /// Decide the in-flight fate of one upload and apply corruption to
    /// `payload` in place. `stale` is the corruption fallback payload (the
    /// state the client started from); `None` restricts corruption to
    /// NaN/Inf injection.
    fn uplink_fate(
        &mut self,
        round: usize,
        client: usize,
        payload: &mut [f32],
        stale: Option<&[f32]>,
    ) -> UplinkFate {
        let mut rng = derive(
            self.seed,
            &[streams::FAULT_UPLINK, round as u64, client as u64],
        );
        // Draw order is fixed (straggler, loss, corruption) so fates are
        // stable under plan changes that disable individual fault kinds.
        let straggle: f32 = rng.gen();
        let latency_u: f32 = rng.gen();
        let lost: f32 = rng.gen();
        let corrupt: f32 = rng.gen();
        if self.plan.straggler_rate > 0.0
            && self.plan.round_deadline > 0.0
            && straggle < self.plan.straggler_rate
        {
            // Exponential latency with the configured mean.
            let latency = -self.plan.straggler_mean_delay * (1.0 - latency_u).max(1e-7).ln();
            if latency > self.plan.round_deadline {
                self.telemetry.deadline_misses += 1;
                self.telemetry.faults_injected += 1;
                return UplinkFate::Lost;
            }
        }
        if lost < self.plan.uplink_loss {
            self.telemetry.uplink_losses += 1;
            self.telemetry.faults_injected += 1;
            return UplinkFate::Lost;
        }
        if corrupt < self.plan.corruption_rate {
            self.corrupt(round, client, payload, stale);
            self.telemetry.faults_injected += 1;
            return UplinkFate::Corrupted;
        }
        UplinkFate::Arrived
    }

    /// Mutate `payload` the way a corrupted upload arrives: NaN scatter,
    /// Inf scatter, or wholesale replacement with the stale start state.
    fn corrupt(&mut self, round: usize, client: usize, payload: &mut [f32], stale: Option<&[f32]>) {
        let mut rng = derive(
            self.seed,
            &[streams::FAULT_CORRUPT, round as u64, client as u64],
        );
        let mode = rng.gen_range(0u32..3);
        match (mode, stale) {
            (2, Some(s)) if s.len() == payload.len() => payload.copy_from_slice(s),
            _ => {
                let poison = if mode == 1 { f32::INFINITY } else { f32::NAN };
                // Scatter the poison over ~1 % of the payload (at least one
                // entry) — a partial bit-rot pattern rather than a blank.
                let hits = (payload.len() / 100).max(1);
                for _ in 0..hits {
                    let i = rng.gen_range(0..payload.len());
                    payload[i] = poison;
                }
            }
        }
    }

    /// Upload `payload` from `client`. Applies the run's codec against
    /// `reference` (the state both ends share, e.g. the broadcast model),
    /// charges the uplink — encoded wire bytes under a codec, the legacy
    /// 4-bytes-per-scalar count under `none` — replaces `payload` with the
    /// server-side reconstruction, may corrupt it in place, and returns
    /// whether the upload reached the server at all. Top-k residuals
    /// advance here regardless of the upload's fate.
    pub fn uplink(
        &mut self,
        round: usize,
        client: usize,
        payload: &mut Vec<f32>,
        reference: Option<&[f32]>,
        stale: Option<&[f32]>,
    ) -> bool {
        if self.codec.is_none() {
            self.meter.up(payload.len());
        } else {
            let residual = match self.codec.base {
                BaseCodec::TopK(_) => Some(self.residuals.remove(&client).unwrap_or_default()),
                _ => None,
            };
            let (enc, residual) = codec::encode_for_upload(
                self.codec, self.seed, round, client, payload, reference, residual,
            );
            self.meter.up_wire(enc.wire.len());
            *payload = enc.decoded;
            if let Some(r) = residual {
                self.residuals.insert(client, r);
            }
        }
        if !self.active {
            return true;
        }
        !matches!(
            self.uplink_fate(round, client, payload, stale),
            UplinkFate::Lost
        )
    }

    /// Server-side pre-aggregation screen: accept only finite payloads of
    /// the expected size. Inactive (always accepts, no scan) under
    /// [`FaultPlan::none()`] so fault-free runs stay byte-identical even
    /// when training itself diverges.
    pub fn screen(&mut self, payload: &[f32], expected_len: usize) -> bool {
        if !self.active {
            return true;
        }
        if payload.len() == expected_len && payload.iter().all(|v| v.is_finite()) {
            true
        } else {
            self.telemetry.updates_quarantined += 1;
            false
        }
    }

    /// The standard skeleton's uplink path: encode, charge, fault, and
    /// quarantine every [`ClientUpdate`], returning the survivors in input
    /// order. `reference` is the state both ends share (the round's
    /// broadcast model, the codec's delta base); `stale` is the corruption
    /// fallback.
    pub fn receive(
        &mut self,
        round: usize,
        updates: Vec<ClientUpdate>,
        reference: Option<&[f32]>,
        stale: Option<&[f32]>,
    ) -> Vec<ClientUpdate> {
        if !self.active && self.codec.is_none() {
            for u in &updates {
                self.meter.up(u.state.len());
            }
            return updates;
        }
        let expected_len = updates.first().map_or(0, |u| u.state.len());
        let mut kept = Vec::with_capacity(updates.len());
        for mut u in updates {
            if self.uplink(round, u.client, &mut u.state, reference, stale)
                && self.screen(&u.state, expected_len)
            {
                kept.push(u);
            }
        }
        kept
    }

    /// The error-feedback residual a remote worker must start `client`'s
    /// encode from — a clone of the server's canonical copy (empty for
    /// codecs without residual state). The worker returns the advanced
    /// residual in its push and [`Transport::receive_remote`] absorbs it,
    /// so the canonical state matches what the in-process encode would
    /// have produced.
    pub fn residual_for(&self, client: usize) -> Vec<f32> {
        match self.codec.base {
            BaseCodec::TopK(_) => self.residuals.get(&client).cloned().unwrap_or_default(),
            _ => Vec::new(),
        }
    }

    /// Record clients whose uploads never arrived for *network* reasons
    /// (worker death with retries exhausted, round deadline): charged to
    /// the same telemetry counters as an in-flight uplink loss, because to
    /// the aggregator they are the same event.
    pub fn record_remote_losses(&mut self, lost: &[usize]) {
        for _ in lost {
            self.telemetry.uplink_losses += 1;
            self.telemetry.faults_injected += 1;
        }
    }

    /// The remote twin of [`Transport::receive`]: updates arrive already
    /// codec-encoded by the worker fleet (`wire_bytes` = what actually
    /// crossed the network, `state` = the reconstruction the worker's
    /// encoder pinned), so the transport charges the reported wire size,
    /// absorbs the advanced residuals, and applies the *same* fate and
    /// quarantine draws as the in-process path — in the same per-update
    /// order, so meters, telemetry, and survivor sets stay bit-identical
    /// to the simulated run at the same seed.
    pub fn receive_remote(
        &mut self,
        round: usize,
        updates: Vec<RemoteUpdate>,
        stale: Option<&[f32]>,
    ) -> Vec<ClientUpdate> {
        let expected_len = updates.first().map_or(0, |u| u.state.len());
        let mut kept = Vec::with_capacity(updates.len());
        for mut u in updates {
            match u.wire_bytes {
                Some(n) => self.meter.up_wire(n),
                None => self.meter.up(u.state.len()),
            }
            if let (Some(r), BaseCodec::TopK(_)) = (u.residual.take(), self.codec.base) {
                self.residuals.insert(u.client, r);
            }
            let arrived = !self.active
                || !matches!(
                    self.uplink_fate(round, u.client, &mut u.state, stale),
                    UplinkFate::Lost
                );
            if arrived && self.screen(&u.state, expected_len) {
                kept.push(ClientUpdate {
                    client: u.client,
                    state: u.state,
                    weight: u.weight,
                    steps: u.steps,
                });
            }
        }
        kept
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg_with(plan: FaultPlan, seed: u64) -> FlConfig {
        let mut cfg = FlConfig::tiny(seed);
        cfg.faults = plan;
        cfg
    }

    fn update(client: usize, state: Vec<f32>) -> ClientUpdate {
        ClientUpdate {
            client,
            state,
            weight: 1.0,
            steps: 1,
        }
    }

    #[test]
    fn none_plan_is_passthrough() {
        let mut t = Transport::new(&cfg_with(FaultPlan::none(), 0));
        let delivered = t.broadcast(3, &[1, 4, 7], 100);
        assert_eq!(delivered, vec![1, 4, 7]);
        let updates = vec![update(1, vec![1.0, 2.0]), update(4, vec![3.0, 4.0])];
        let kept = t.receive(3, updates.clone(), None, None);
        assert_eq!(kept.len(), 2);
        assert_eq!(kept[0].state, updates[0].state);
        assert_eq!(t.meter().total_bytes(), (3 * 100 + 2 * 2) as f64 * 4.0);
        assert_eq!(t.telemetry(), FaultTelemetry::default());
    }

    #[test]
    fn total_downlink_loss_still_delivers_to_one_client() {
        let plan = FaultPlan {
            downlink_loss: 1.0,
            max_downlink_retries: 2,
            ..FaultPlan::none()
        };
        let mut t = Transport::new(&cfg_with(plan, 1));
        let delivered = t.broadcast(0, &[2, 5, 8], 10);
        assert_eq!(delivered, vec![2], "liveness keeps the first client");
        // Every client attempted 1 + 2 retries, all charged.
        assert_eq!(t.meter().total_bytes(), (3 * 3 * 10) as f64 * 4.0);
        assert_eq!(t.telemetry().retries, 3 * 2);
        assert_eq!(t.telemetry().downlink_failures, 2);
    }

    #[test]
    fn lost_uplinks_are_still_charged() {
        let plan = FaultPlan {
            uplink_loss: 1.0,
            ..FaultPlan::none()
        };
        let mut t = Transport::new(&cfg_with(plan, 2));
        let kept = t.receive(
            0,
            vec![update(0, vec![1.0]), update(1, vec![2.0])],
            None,
            None,
        );
        assert!(kept.is_empty());
        assert_eq!(t.meter().up_mb() * 1e6, 2.0 * 4.0);
        assert_eq!(t.telemetry().uplink_losses, 2);
    }

    #[test]
    fn corruption_is_caught_by_the_screen() {
        let plan = FaultPlan {
            corruption_rate: 1.0,
            ..FaultPlan::none()
        };
        let mut t = Transport::new(&cfg_with(plan, 3));
        let updates: Vec<ClientUpdate> = (0..8).map(|c| update(c, vec![0.5; 50])).collect();
        let kept = t.receive(0, updates, None, None);
        // stale fallback is None, so every corruption is NaN/Inf: all
        // corrupted updates must be quarantined.
        assert!(kept.is_empty());
        assert_eq!(t.telemetry().updates_quarantined, 8);
        assert_eq!(t.telemetry().faults_injected, 8);
    }

    #[test]
    fn stale_corruption_passes_the_screen() {
        let plan = FaultPlan {
            corruption_rate: 1.0,
            ..FaultPlan::none()
        };
        let stale = vec![9.0f32; 4];
        let mut t = Transport::new(&cfg_with(plan, 4));
        let updates: Vec<ClientUpdate> = (0..24).map(|c| update(c, vec![0.5; 4])).collect();
        let kept = t.receive(0, updates, None, Some(&stale));
        // Mode draw is uniform over {NaN, Inf, stale}: some survivors must
        // be stale copies, and every survivor must equal the stale state.
        assert!(!kept.is_empty());
        assert!(kept.iter().all(|u| u.state == stale));
    }

    #[test]
    fn faults_are_deterministic_per_seed_round_client() {
        let plan = FaultPlan {
            downlink_loss: 0.4,
            uplink_loss: 0.3,
            corruption_rate: 0.2,
            straggler_rate: 0.5,
            round_deadline: 1.0,
            ..FaultPlan::none()
        };
        let run = |seed: u64| {
            let mut t = Transport::new(&cfg_with(plan, seed));
            let delivered = t.broadcast(1, &[0, 1, 2, 3, 4, 5], 20);
            let updates = delivered
                .iter()
                .map(|&c| update(c, vec![c as f32; 20]))
                .collect();
            let kept: Vec<(usize, Vec<f32>)> = t
                .receive(1, updates, None, None)
                .into_iter()
                .map(|u| (u.client, u.state))
                .collect();
            (delivered, kept, t.telemetry())
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7).0, run(8).0, "different seeds diverge (w.h.p.)");
    }

    #[test]
    fn straggler_past_deadline_is_dropped() {
        let plan = FaultPlan {
            straggler_rate: 1.0,
            straggler_mean_delay: 100.0,
            round_deadline: 0.01,
            ..FaultPlan::none()
        };
        let mut t = Transport::new(&cfg_with(plan, 5));
        let updates: Vec<ClientUpdate> = (0..6).map(|c| update(c, vec![1.0])).collect();
        let kept = t.receive(0, updates, None, None);
        assert!(kept.is_empty(), "mean delay 100× the deadline drops all");
        assert_eq!(t.telemetry().deadline_misses, 6);
    }

    fn cfg_with_codec(codec: &str, seed: u64) -> FlConfig {
        let mut cfg = FlConfig::tiny(seed);
        cfg.codec = CodecSpec::parse(codec).expect("codec parses");
        cfg
    }

    #[test]
    fn codec_uplink_charges_encoded_wire_bytes() {
        let mut t = Transport::new(&cfg_with_codec("q8", 0));
        let mut payload: Vec<f32> = (0..100).map(|i| i as f32 * 0.1).collect();
        assert!(t.uplink(0, 3, &mut payload, None, None));
        let expected = t.codec().wire_len(100);
        assert_eq!(t.meter().uplink_bytes(), expected as f64);
        assert!(
            t.meter().uplink_bytes() < 100.0 * 4.0,
            "q8 must be cheaper than raw f32"
        );
        assert_eq!(payload.len(), 100, "server sees the reconstruction");
    }

    #[test]
    fn codec_receive_delivers_the_decoded_payload() {
        let mut t = Transport::new(&cfg_with_codec("delta+q8", 1));
        let reference = vec![1.0f32; 40];
        let state: Vec<f32> = (0..40).map(|i| 1.0 + (i as f32) * 0.01).collect();
        let kept = t.receive(0, vec![update(7, state.clone())], Some(&reference), None);
        assert_eq!(kept.len(), 1, "no faults: the update survives");
        let step = (0.39f32 / 255.0) as f64;
        for (x, d) in state.iter().zip(&kept[0].state) {
            assert!(
                ((*x as f64) - (*d as f64)).abs() <= step / 2.0 + 1e-6,
                "|{} - {}| > half a quantization step",
                x,
                d
            );
        }
    }

    #[test]
    fn codec_residuals_persist_and_restore() {
        let mut t = Transport::new(&cfg_with_codec("topk:0.25", 2));
        let mut payload = vec![4.0f32, 0.1, 0.2, 0.3];
        assert!(t.uplink(0, 5, &mut payload, None, None));
        let residuals = t.codec_residuals();
        assert_eq!(residuals.len(), 1);
        assert_eq!(residuals[0].0, 5);
        assert_eq!(residuals[0].1, vec![0.0, 0.1, 0.2, 0.3]);

        // A fresh transport restored from the captured state continues
        // bit-identically.
        let mut fresh = Transport::new(&cfg_with_codec("topk:0.25", 2));
        fresh.restore_comm_state(t.meter().clone(), t.telemetry(), residuals);
        let mut a = vec![0.0f32; 4];
        let mut b = a.clone();
        assert!(t.uplink(1, 5, &mut a, None, None));
        assert!(fresh.uplink(1, 5, &mut b, None, None));
        assert_eq!(a, b);
        assert_eq!(t.codec_residuals(), fresh.codec_residuals());
    }

    #[test]
    fn codec_composes_with_uplink_faults() {
        let plan = FaultPlan {
            uplink_loss: 1.0,
            ..FaultPlan::none()
        };
        let mut cfg = cfg_with_codec("topk:0.5", 3);
        cfg.faults = plan;
        let mut t = Transport::new(&cfg);
        let updates = vec![update(0, vec![1.0, 2.0]), update(1, vec![3.0, 4.0])];
        let kept = t.receive(0, updates, None, None);
        assert!(kept.is_empty(), "total uplink loss drops everything");
        // Lost messages are still charged at their encoded size…
        let wire = t.codec().wire_len(2);
        assert_eq!(t.meter().uplink_bytes(), (2 * wire) as f64);
        // …and the client-side residuals advanced anyway.
        assert_eq!(t.codec_residuals().len(), 2);
    }

    #[test]
    fn retry_policy_mirrors_the_fault_plan() {
        // `--retries N` = N + 1 attempts, the same mapping the networked
        // transport sleeps on.
        let plan = FaultPlan {
            max_downlink_retries: 5,
            ..FaultPlan::none()
        };
        let t = Transport::new(&cfg_with(plan, 0));
        assert_eq!(t.retry_policy().max_attempts, 6);
        assert_eq!(t.retry_policy().retries(), 5);
        assert_eq!(t.retry_policy().attempts().count(), 6);
    }

    #[test]
    fn broadcast_charges_every_policy_attempt() {
        // Wire honesty per attempt: with total loss, every attempt the
        // policy allows is transmitted and charged.
        for retries in [0usize, 1, 3] {
            let plan = FaultPlan {
                downlink_loss: 1.0,
                max_downlink_retries: retries,
                ..FaultPlan::none()
            };
            let mut t = Transport::new(&cfg_with(plan, 11));
            let attempts = t.retry_policy().max_attempts as usize;
            t.broadcast(0, &[0, 1], 7);
            assert_eq!(
                t.meter().total_bytes(),
                (2 * attempts * 7) as f64 * 4.0,
                "retries={retries}: every attempt must be charged"
            );
            assert_eq!(t.telemetry().retries, 2 * (attempts - 1));
        }
    }

    #[test]
    fn remote_receive_is_bit_identical_to_in_process() {
        // The networked server's uplink path (worker encodes, server
        // absorbs) must reproduce the simulated path bit-for-bit: same
        // survivors, same states, same meter, same telemetry, same
        // residuals.
        let plan = FaultPlan {
            uplink_loss: 0.3,
            corruption_rate: 0.25,
            straggler_rate: 0.3,
            round_deadline: 1.0,
            ..FaultPlan::none()
        };
        for spec in ["none", "q8", "delta+q8+sr", "topk:0.5"] {
            let mut cfg = cfg_with_codec(spec, 9);
            cfg.faults = plan;
            let mut local = Transport::new(&cfg);
            let mut net = Transport::new(&cfg);
            let reference: Vec<f32> = (0..20).map(|i| i as f32 * 0.1).collect();
            for round in 0..3usize {
                let updates: Vec<ClientUpdate> = (0..6)
                    .map(|c| update(c, (0..20).map(|i| ((i + c) as f32) * 0.07 - 0.3).collect()))
                    .collect();
                let remote: Vec<RemoteUpdate> = updates
                    .iter()
                    .map(|u| {
                        if net.codec().is_none() {
                            RemoteUpdate {
                                client: u.client,
                                steps: u.steps,
                                weight: u.weight,
                                state: u.state.clone(),
                                wire_bytes: None,
                                residual: None,
                            }
                        } else {
                            // What the worker process does, via the same
                            // shared encode entry point.
                            let residual = match net.codec().base {
                                BaseCodec::TopK(_) => Some(net.residual_for(u.client)),
                                _ => None,
                            };
                            let (enc, residual) = codec::encode_for_upload(
                                net.codec(),
                                cfg.seed,
                                round,
                                u.client,
                                &u.state,
                                Some(&reference),
                                residual,
                            );
                            RemoteUpdate {
                                client: u.client,
                                steps: u.steps,
                                weight: u.weight,
                                state: enc.decoded,
                                wire_bytes: Some(enc.wire.len()),
                                residual,
                            }
                        }
                    })
                    .collect();
                let kept_local = local.receive(round, updates, Some(&reference), Some(&reference));
                let kept_net = net.receive_remote(round, remote, Some(&reference));
                let key = |v: &[ClientUpdate]| {
                    v.iter()
                        .map(|u| {
                            (
                                u.client,
                                u.state.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                            )
                        })
                        .collect::<Vec<_>>()
                };
                assert_eq!(key(&kept_local), key(&kept_net), "{spec} round {round}");
                assert_eq!(
                    local.meter().total_bytes(),
                    net.meter().total_bytes(),
                    "{spec} round {round}: meters diverged"
                );
                assert_eq!(local.telemetry(), net.telemetry(), "{spec} round {round}");
                assert_eq!(
                    local.codec_residuals(),
                    net.codec_residuals(),
                    "{spec} round {round}: residuals diverged"
                );
            }
        }
    }

    #[test]
    fn sanitize_clamps_wild_plans() {
        let wild = FaultPlan {
            downlink_loss: 7.0,
            uplink_loss: -2.0,
            corruption_rate: f32::NAN,
            straggler_mean_delay: -1.0,
            round_deadline: f32::INFINITY,
            max_downlink_retries: 1_000_000,
            straggler_rate: 0.5,
        };
        let s = wild.sanitized();
        assert_eq!(s.downlink_loss, 1.0);
        assert_eq!(s.uplink_loss, 0.0);
        assert_eq!(s.corruption_rate, 0.0);
        assert_eq!(s.straggler_mean_delay, 0.0);
        assert_eq!(s.round_deadline, 0.0);
        assert_eq!(s.max_downlink_retries, MAX_DOWNLINK_RETRIES);
    }
}
