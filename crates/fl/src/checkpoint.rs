//! Crash-safe checkpointing and bit-identical resume.
//!
//! Long federated runs die: OOM kills, preemption, power loss. FedClust in
//! particular concentrates its value in one-shot state — the round-0
//! partial weights, proximity matrix, and cluster assignment are computed
//! once and are not cheaply recomputable — so losing a process at round
//! 150 of 200 must not discard the run. This module provides:
//!
//! * a versioned, FNV-64-checksummed **binary checkpoint format**
//!   ([`Checkpoint`]) carrying the round index, per-method server state
//!   ([`MethodState`]), per-method persistent *client* state (LG personal
//!   layers, SCAFFOLD `c_i`, FedDyn `λ_i`), and the run's
//!   [`CommMeter`]/[`FaultTelemetry`] counters;
//! * **torn-write safety**: checkpoints are written to `*.tmp`, fsynced,
//!   and atomically renamed into place; the last K generations are kept;
//! * a **fallback loader**: a corrupted or truncated newest generation is
//!   detected by the magic/version/checksum header and skipped with a
//!   diagnostic, falling back to the newest valid generation;
//! * **bit-identical resume**: every random decision in the engine derives
//!   statelessly from `(seed, stream, round, client)` (no RNG state is
//!   carried across rounds), so a checkpoint needs only the seed identity
//!   plus the server-side state for a resumed run to finish byte-identical
//!   to an uninterrupted one. `tests/crash_recovery.rs` asserts this.
//!
//! Images are written and read through [`fedclust_proto::bytes`] (bit-exact
//! floats, total reads, no allocation before a length is checked); what
//! this module adds is the format's own policy — magic, version, u64 length
//! prefixes, the checksum in the header.

use crate::comm::CommMeter;
use crate::faults::{CrashPlan, FaultTelemetry, CRASH_EXIT_CODE};
use crate::metrics::RoundRecord;
use fedclust_proto::bytes::{self, Reader, Writer};
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// File magic: identifies a fedclust checkpoint at a glance.
pub const MAGIC: [u8; 8] = *b"FEDCKPT\n";

/// Current checkpoint format version. Version 2 added the transport's
/// per-client codec residuals (top-k error feedback) after the method
/// state; version-1 images are refused rather than silently resumed with
/// zeroed residuals, which would break bit-identity.
pub const FORMAT_VERSION: u32 = 2;

/// Why a checkpoint operation failed.
#[derive(Debug, Clone, PartialEq)]
pub enum CheckpointError {
    /// A filesystem operation failed (create/write/sync/rename/read).
    Io(String),
    /// A checkpoint file failed validation: bad magic, unsupported
    /// version, truncation, checksum mismatch, or malformed payload.
    Corrupt(String),
    /// The checkpoint is valid but belongs to a different run (method,
    /// seed, model, or federation shape differs).
    Mismatch(String),
    /// The method cannot resume from the state variant it was handed.
    WrongState(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(m) => write!(f, "checkpoint I/O error: {}", m),
            CheckpointError::Corrupt(m) => write!(f, "corrupt checkpoint: {}", m),
            CheckpointError::Mismatch(m) => write!(f, "checkpoint mismatch: {}", m),
            CheckpointError::WrongState(m) => write!(f, "wrong checkpoint state: {}", m),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<bytes::Error> for CheckpointError {
    fn from(e: bytes::Error) -> Self {
        CheckpointError::Corrupt(e.to_string())
    }
}

/// LG-FedAvg's server-side state.
#[derive(Debug, Clone, PartialEq)]
pub struct LgState {
    /// The communicated global tail (global blocks + extra state).
    pub global_part: Vec<f32>,
    /// Each client's full state vector (local layers persist).
    pub client_states: Vec<Vec<f32>>,
}

/// SCAFFOLD's server-side state.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaffoldState {
    /// The server model state vector.
    pub state: Vec<f32>,
    /// The global control variate `c`.
    pub c_global: Vec<f32>,
    /// Each client's control variate `c_i`.
    pub c_clients: Vec<Vec<f32>>,
}

/// FedDyn's server-side state.
#[derive(Debug, Clone, PartialEq)]
pub struct FedDynState {
    /// The server model state vector θ.
    pub state: Vec<f32>,
    /// The server's running corrector `h`.
    pub h: Vec<f32>,
    /// Each client's dual variable `λ_i`.
    pub lambdas: Vec<Vec<f32>>,
}

/// The server-side state a method needs to continue mid-run. Variants
/// carry persistent *client* state too (personal layers, control
/// variates, duals) — that state lives on the server in this simulation.
#[derive(Debug, Clone, PartialEq)]
pub enum MethodState {
    /// One global model (FedAvg/FedProx/FedNova/PerFedAvg).
    Global {
        /// The global state vector.
        state: Vec<f32>,
    },
    /// LG-FedAvg: the shared tail plus every client's full personal state.
    Lg(LgState),
    /// SCAFFOLD: model, global control variate, per-client variates.
    Scaffold(ScaffoldState),
    /// FedDyn: model, server corrector `h`, per-client duals `λ_i`.
    FedDyn(FedDynState),
    /// IFCA: the k cluster models.
    Ifca {
        /// One state vector per cluster model.
        states: Vec<Vec<f32>>,
    },
    /// CFL: dynamic clusters plus the split-decision caches.
    Cfl {
        /// One state vector per current cluster.
        states: Vec<Vec<f32>>,
        /// Member client ids per current cluster.
        members: Vec<Vec<usize>>,
        /// Latest cached update direction per client.
        last_update: Vec<Option<Vec<f32>>>,
        /// The scale-free split-threshold reference norm, once captured.
        reference_norm: Option<f64>,
    },
    /// Static clustered training (PACFL): cluster models + assignment.
    Clustered {
        /// One state vector per cluster.
        states: Vec<Vec<f32>>,
        /// Cluster id per client.
        labels: Vec<usize>,
    },
    /// FedClust: the serialized `SavedFederation` snapshot (cluster
    /// states, representatives, labels, θ⁰) from the `fedclust` crate,
    /// carried opaquely since `fl` cannot depend on it.
    FedClust {
        /// `SavedFederation::to_json()` output.
        federation_json: String,
    },
}

impl MethodState {
    /// Variant name, for diagnostics.
    pub fn kind(&self) -> &'static str {
        match self {
            MethodState::Global { .. } => "Global",
            MethodState::Lg { .. } => "Lg",
            MethodState::Scaffold { .. } => "Scaffold",
            MethodState::FedDyn { .. } => "FedDyn",
            MethodState::Ifca { .. } => "Ifca",
            MethodState::Cfl { .. } => "Cfl",
            MethodState::Clustered { .. } => "Clustered",
            MethodState::FedClust { .. } => "FedClust",
        }
    }
}

/// One durable snapshot of a run: everything needed to continue from
/// `next_round` bit-identically.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Method display name (resume refuses a different method's file).
    pub method: String,
    /// Root experiment seed — the RNG stream identity. All engine RNG
    /// derives statelessly from `(seed, stream, round, client)`, so the
    /// seed alone pins every future random decision.
    pub seed: u64,
    /// The next round to run (0-based). A FedClust post-clustering
    /// checkpoint has `next_round == 0`: clustering done, no training yet.
    pub next_round: usize,
    /// Communication accounting at the snapshot point.
    pub meter: CommMeter,
    /// Fault-injection counters at the snapshot point.
    pub telemetry: FaultTelemetry,
    /// Evaluation history up to the snapshot point.
    pub history: Vec<RoundRecord>,
    /// The method's server state.
    pub state: MethodState,
    /// The transport's per-client codec error-feedback residuals (top-k
    /// compression), sorted by client id. Empty for uncompressed runs and
    /// for codecs without persistent client state.
    pub residuals: Vec<(usize, Vec<f32>)>,
}

impl Checkpoint {
    /// Serialize to the on-disk image (header + checksummed payload).
    pub fn encode(&self) -> Vec<u8> {
        let mut p = Writer::default();
        encode_str(&mut p, &self.method);
        p.u64(self.seed);
        p.u64(self.next_round as u64);
        p.f64(self.meter.downlink_bytes());
        p.f64(self.meter.uplink_bytes());
        p.u64(self.telemetry.faults_injected as u64);
        p.u64(self.telemetry.updates_quarantined as u64);
        p.u64(self.telemetry.retries as u64);
        p.u64(self.telemetry.downlink_failures as u64);
        p.u64(self.telemetry.uplink_losses as u64);
        p.u64(self.telemetry.deadline_misses as u64);
        encode_seq(&mut p, &self.history, |p, r| {
            p.u64(r.round as u64);
            p.f64(r.avg_acc);
            p.f64(r.cum_mb);
        });
        encode_state(&mut p, &self.state);
        encode_seq(&mut p, &self.residuals, |p, (client, res)| {
            p.u64(*client as u64);
            encode_vec_f32(p, res);
        });
        let payload = p.into_bytes();

        let mut out = Writer::default();
        out.bytes(&MAGIC);
        out.u32(FORMAT_VERSION);
        out.u64(payload.len() as u64);
        out.u64(bytes::fnv64(&payload));
        out.bytes(&payload);
        out.into_bytes()
    }

    /// Decode and verify an on-disk image.
    pub fn decode(image: &[u8]) -> Result<Checkpoint, CheckpointError> {
        let mut file = Reader::new(image);
        if file.array()? != MAGIC {
            return Err(CheckpointError::Corrupt("bad magic".into()));
        }
        let version = file.u32()?;
        if version != FORMAT_VERSION {
            return Err(CheckpointError::Corrupt(format!(
                "unsupported format version {} (this build reads {})",
                version, FORMAT_VERSION
            )));
        }
        let (payload_len, checksum) = (file.u64()?, file.u64()?);
        if file.remaining() as u64 != payload_len {
            return Err(CheckpointError::Corrupt(format!(
                "truncated: header promises {} payload bytes, file has {}",
                payload_len,
                file.remaining()
            )));
        }
        let payload = file.take(file.remaining())?;
        let actual = bytes::fnv64(payload);
        if actual != checksum {
            return Err(CheckpointError::Corrupt(format!(
                "checksum mismatch: header {:#018x}, payload {:#018x}",
                checksum, actual
            )));
        }

        let mut r = Reader::new(payload);
        let cp = Checkpoint {
            method: decode_str(&mut r)?,
            seed: r.u64()?,
            next_round: decode_usize(&mut r)?,
            meter: CommMeter::from_bytes(r.f64()?, r.f64()?),
            telemetry: FaultTelemetry {
                faults_injected: decode_usize(&mut r)?,
                updates_quarantined: decode_usize(&mut r)?,
                retries: decode_usize(&mut r)?,
                downlink_failures: decode_usize(&mut r)?,
                uplink_losses: decode_usize(&mut r)?,
                deadline_misses: decode_usize(&mut r)?,
            },
            history: decode_seq(&mut r, "history", |r| {
                Ok(RoundRecord {
                    round: decode_usize(r)?,
                    avg_acc: r.f64()?,
                    cum_mb: r.f64()?,
                })
            })?,
            state: decode_state(&mut r)?,
            residuals: decode_seq(&mut r, "codec residuals", |r| {
                Ok((decode_usize(r)?, decode_vec_f32(r)?))
            })?,
        };
        r.finish()?;
        Ok(cp)
    }
}

fn encode_state(e: &mut Writer, state: &MethodState) {
    match state {
        MethodState::Global { state } => {
            e.u8(0);
            encode_vec_f32(e, state);
        }
        MethodState::Lg(s) => {
            e.u8(1);
            encode_vec_f32(e, &s.global_part);
            encode_vec_vec_f32(e, &s.client_states);
        }
        MethodState::Scaffold(s) => {
            e.u8(2);
            encode_vec_f32(e, &s.state);
            encode_vec_f32(e, &s.c_global);
            encode_vec_vec_f32(e, &s.c_clients);
        }
        MethodState::FedDyn(s) => {
            e.u8(3);
            encode_vec_f32(e, &s.state);
            encode_vec_f32(e, &s.h);
            encode_vec_vec_f32(e, &s.lambdas);
        }
        MethodState::Ifca { states } => {
            e.u8(4);
            encode_vec_vec_f32(e, states);
        }
        MethodState::Cfl {
            states,
            members,
            last_update,
            reference_norm,
        } => {
            e.u8(5);
            encode_vec_vec_f32(e, states);
            encode_seq(e, members, |e, m| encode_vec_usize(e, m));
            encode_seq(e, last_update, |e, u| {
                encode_option(e, u, |e, v| encode_vec_f32(e, v))
            });
            encode_option(e, reference_norm, |e, v| e.f64(*v));
        }
        MethodState::Clustered { states, labels } => {
            e.u8(6);
            encode_vec_vec_f32(e, states);
            encode_vec_usize(e, labels);
        }
        MethodState::FedClust { federation_json } => {
            e.u8(7);
            encode_str(e, federation_json);
        }
    }
}

fn decode_state(r: &mut Reader<'_>) -> Result<MethodState, CheckpointError> {
    match r.u8()? {
        0 => Ok(MethodState::Global {
            state: decode_vec_f32(r)?,
        }),
        1 => Ok(MethodState::Lg(LgState {
            global_part: decode_vec_f32(r)?,
            client_states: decode_vec_vec_f32(r)?,
        })),
        2 => Ok(MethodState::Scaffold(ScaffoldState {
            state: decode_vec_f32(r)?,
            c_global: decode_vec_f32(r)?,
            c_clients: decode_vec_vec_f32(r)?,
        })),
        3 => Ok(MethodState::FedDyn(FedDynState {
            state: decode_vec_f32(r)?,
            h: decode_vec_f32(r)?,
            lambdas: decode_vec_vec_f32(r)?,
        })),
        4 => Ok(MethodState::Ifca {
            states: decode_vec_vec_f32(r)?,
        }),
        5 => Ok(MethodState::Cfl {
            states: decode_vec_vec_f32(r)?,
            members: decode_seq(r, "cfl members", decode_vec_usize)?,
            last_update: decode_seq(r, "cfl last_update", |r| {
                decode_option(r, "cfl last_update", decode_vec_f32)
            })?,
            reference_norm: decode_option(r, "cfl reference_norm", |r| Ok(r.f64()?))?,
        }),
        6 => Ok(MethodState::Clustered {
            states: decode_vec_vec_f32(r)?,
            labels: decode_vec_usize(r)?,
        }),
        7 => Ok(MethodState::FedClust {
            federation_json: decode_str(r)?,
        }),
        t => Err(CheckpointError::Corrupt(format!(
            "unknown method-state tag {}",
            t
        ))),
    }
}

// The checkpoint format's own policy on top of the byte layer: every
// length prefix is a u64, and a count is plausible only while each element
// it promises could still occupy at least one of the bytes left.

fn encode_str(w: &mut Writer, s: &str) {
    w.u64(s.len() as u64);
    w.bytes(s.as_bytes());
}

fn encode_vec_f32(w: &mut Writer, v: &[f32]) {
    w.u64(v.len() as u64);
    w.f32s(v);
}

/// A length-prefixed sequence of whatever `item` writes.
fn encode_seq<T>(w: &mut Writer, items: &[T], mut item: impl FnMut(&mut Writer, &T)) {
    w.u64(items.len() as u64);
    for x in items {
        item(w, x);
    }
}

/// A one-byte `0`/`1` presence tag, then the value when present.
fn encode_option<T>(w: &mut Writer, value: &Option<T>, some: impl FnOnce(&mut Writer, &T)) {
    w.u8(u8::from(value.is_some()));
    if let Some(v) = value {
        some(w, v);
    }
}

fn encode_vec_vec_f32(w: &mut Writer, v: &[Vec<f32>]) {
    encode_seq(w, v, |w, inner| encode_vec_f32(w, inner));
}

fn encode_vec_usize(w: &mut Writer, v: &[usize]) {
    encode_seq(w, v, |w, &x| w.u64(x as u64));
}

type Decoded<T> = Result<T, CheckpointError>;

fn to_usize(v: u64) -> Decoded<usize> {
    usize::try_from(v).map_err(|_| CheckpointError::Corrupt(format!("{} does not fit in usize", v)))
}

fn decode_usize(r: &mut Reader<'_>) -> Decoded<usize> {
    to_usize(r.u64()?)
}

/// A length prefix, validated against the bytes actually remaining (each
/// element needs at least one byte) to bound allocations.
fn decode_len(r: &mut Reader<'_>, what: &str) -> Decoded<usize> {
    let n = decode_usize(r)?;
    if n > r.remaining() {
        return Err(CheckpointError::Corrupt(format!(
            "implausible {} length {} with {} payload bytes left",
            what,
            n,
            r.remaining()
        )));
    }
    Ok(n)
}

/// A length-prefixed sequence of whatever `item` reads.
fn decode_seq<'a, T>(
    r: &mut Reader<'a>,
    what: &str,
    mut item: impl FnMut(&mut Reader<'a>) -> Decoded<T>,
) -> Decoded<Vec<T>> {
    let n = decode_len(r, what)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(item(r)?);
    }
    Ok(out)
}

/// A one-byte `0`/`1` presence tag, then the value when present.
fn decode_option<'a, T>(
    r: &mut Reader<'a>,
    what: &str,
    some: impl FnOnce(&mut Reader<'a>) -> Decoded<T>,
) -> Decoded<Option<T>> {
    match r.u8()? {
        0 => Ok(None),
        1 => some(r).map(Some),
        t => Err(CheckpointError::Corrupt(format!(
            "bad option tag {} in {}",
            t, what
        ))),
    }
}

fn decode_str(r: &mut Reader<'_>) -> Decoded<String> {
    let n = decode_len(r, "string")?;
    Ok(r.str(n)?)
}

fn decode_vec_f32(r: &mut Reader<'_>) -> Decoded<Vec<f32>> {
    let n = decode_usize(r)?;
    Ok(r.f32s(n)?)
}

fn decode_vec_vec_f32(r: &mut Reader<'_>) -> Decoded<Vec<Vec<f32>>> {
    decode_seq(r, "nested vector", decode_vec_f32)
}

fn decode_vec_usize(r: &mut Reader<'_>) -> Decoded<Vec<usize>> {
    let n = decode_usize(r)?;
    r.u64s(n)?.into_iter().map(to_usize).collect()
}

/// The checkpoint file name of generation `next_round`.
pub fn generation_file(next_round: usize) -> String {
    format!("ckpt-{:06}.bin", next_round)
}

/// All checkpoint generations in `dir`, sorted oldest first. A missing
/// directory is simply empty. `*.tmp` leftovers are ignored (they are, by
/// protocol, incomplete).
pub fn list_generations(dir: &Path) -> Result<Vec<(usize, PathBuf)>, CheckpointError> {
    let mut out: Vec<(usize, PathBuf)> = Vec::new();
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(out),
        Err(e) => {
            return Err(CheckpointError::Io(format!(
                "cannot list {}: {}",
                dir.display(),
                e
            )))
        }
    };
    for entry in entries {
        let entry = entry
            .map_err(|e| CheckpointError::Io(format!("cannot list {}: {}", dir.display(), e)))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(num) = name
            .strip_prefix("ckpt-")
            .and_then(|r| r.strip_suffix(".bin"))
        else {
            continue;
        };
        let Ok(generation) = num.parse::<usize>() else {
            continue;
        };
        out.push((generation, entry.path()));
    }
    // read_dir order is filesystem-dependent; sort for determinism.
    out.sort_by_key(|&(g, _)| g);
    Ok(out)
}

/// Scan `dir` newest-generation-first and return the first checkpoint that
/// decodes and verifies, plus the diagnostics for every generation that
/// had to be skipped. A corrupted or truncated newest file therefore falls
/// back to the previous valid generation; if nothing valid remains, the
/// caller starts fresh.
pub fn load_latest(dir: &Path) -> Result<(Option<Checkpoint>, Vec<String>), CheckpointError> {
    let mut diagnostics = Vec::new();
    let mut generations = list_generations(dir)?;
    generations.reverse();
    for (_, path) in generations {
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(e) => {
                diagnostics.push(format!(
                    "skipping unreadable checkpoint {}: {}",
                    path.display(),
                    e
                ));
                continue;
            }
        };
        match Checkpoint::decode(&bytes) {
            Ok(cp) => return Ok((Some(cp), diagnostics)),
            Err(e) => diagnostics.push(format!(
                "skipping {}: {}; falling back to an older generation",
                path.display(),
                e
            )),
        }
    }
    Ok((None, diagnostics))
}

/// Drives when checkpoints are written, where they live, how many
/// generations are kept, and whether/where to resume. A disabled
/// checkpointer ([`Checkpointer::disabled`]) performs no I/O at all, so
/// `run` paths without checkpointing pay nothing.
#[derive(Debug, Clone)]
pub struct Checkpointer {
    dir: Option<PathBuf>,
    every: usize,
    keep: usize,
    resume: bool,
    crash: CrashPlan,
    diagnostics: Vec<String>,
}

impl Checkpointer {
    /// No checkpointing: every hook is a no-op and cannot fail.
    pub fn disabled() -> Self {
        Checkpointer {
            dir: None,
            every: 1,
            keep: 3,
            resume: false,
            crash: CrashPlan::none(),
            diagnostics: Vec::new(),
        }
    }

    /// Checkpoint into `dir` after every round, keeping 3 generations.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Checkpointer {
            dir: Some(dir.into()),
            ..Checkpointer::disabled()
        }
    }

    /// Checkpoint every `every` rounds (minimum 1).
    pub fn every(mut self, every: usize) -> Self {
        self.every = every.max(1);
        self
    }

    /// Keep the newest `keep` generations (minimum 1).
    pub fn keep(mut self, keep: usize) -> Self {
        self.keep = keep.max(1);
        self
    }

    /// Whether [`Checkpointer::resume_point`] should look for an existing
    /// checkpoint (off by default: a fresh run ignores old generations).
    pub fn resume(mut self, resume: bool) -> Self {
        self.resume = resume;
        self
    }

    /// Arm a deterministic crash plan (testing aid; see
    /// [`crate::faults::CrashPlan`]).
    pub fn crash(mut self, plan: CrashPlan) -> Self {
        self.crash = plan;
        self
    }

    /// Whether checkpoints will actually be written.
    pub fn is_enabled(&self) -> bool {
        self.dir.is_some()
    }

    /// Human-readable notes accumulated while loading (skipped corrupt
    /// generations, the resume decision). Surface these to the user.
    pub fn diagnostics(&self) -> &[String] {
        &self.diagnostics
    }

    /// Find the checkpoint to resume from, if any. Validates that it
    /// belongs to this `(method, seed)` run; corrupt generations are
    /// skipped with a diagnostic, and if no valid generation remains the
    /// run starts fresh (with a diagnostic saying so).
    pub fn resume_point(
        &mut self,
        method: &str,
        seed: u64,
    ) -> Result<Option<Checkpoint>, CheckpointError> {
        let Some(dir) = &self.dir else {
            return Ok(None);
        };
        if !self.resume {
            return Ok(None);
        }
        let (found, diags) = load_latest(dir)?;
        let had_skips = !diags.is_empty();
        self.diagnostics.extend(diags);
        match found {
            None => {
                if had_skips {
                    self.diagnostics.push(format!(
                        "no valid checkpoint generation left in {}; starting fresh",
                        dir.display()
                    ));
                }
                Ok(None)
            }
            Some(cp) => {
                if cp.method != method {
                    return Err(CheckpointError::Mismatch(format!(
                        "checkpoint in {} belongs to method {} (this run is {})",
                        dir.display(),
                        cp.method,
                        method
                    )));
                }
                if cp.seed != seed {
                    return Err(CheckpointError::Mismatch(format!(
                        "checkpoint in {} was written with seed {} (this run uses {}); \
                         resuming would not be bit-identical",
                        dir.display(),
                        cp.seed,
                        seed
                    )));
                }
                self.diagnostics.push(format!(
                    "resuming {} from {} at round {}",
                    method,
                    dir.display(),
                    cp.next_round
                ));
                Ok(Some(cp))
            }
        }
    }

    /// End-of-round hook: write a checkpoint if one is due at `round`
    /// (0-based), then honour any armed crash plan. `build` is only called
    /// when a checkpoint will actually be written.
    pub fn on_round_end(
        &mut self,
        round: usize,
        build: impl FnOnce() -> Checkpoint,
    ) -> Result<(), CheckpointError> {
        let crash_here = self.crash.after_round == Some(round);
        let torn = crash_here && self.crash.mid_write;
        let due = self.is_enabled() && (round + 1).is_multiple_of(self.every);
        if due || (torn && self.is_enabled()) {
            let cp = build();
            self.write(&cp, torn)?;
        }
        if crash_here {
            // Deterministic process death between rounds (a torn mid-write
            // crash exits inside `write` instead and never reaches here).
            std::process::exit(CRASH_EXIT_CODE);
        }
        Ok(())
    }

    /// Write a checkpoint immediately, regardless of cadence — for
    /// one-shot state whose recomputation is the whole point of
    /// checkpointing (FedClust's post-clustering snapshot).
    pub fn save_now(&mut self, cp: &Checkpoint) -> Result<(), CheckpointError> {
        if self.is_enabled() {
            self.write(cp, false)?;
        }
        Ok(())
    }

    /// Torn-write-safe write: `*.tmp` → fsync → atomic rename → prune old
    /// generations. With `torn` set (crash injection), only half the image
    /// reaches the tmp file and the process dies, leaving the previous
    /// generation untouched.
    fn write(&mut self, cp: &Checkpoint, torn: bool) -> Result<(), CheckpointError> {
        let Some(dir) = self.dir.clone() else {
            return Ok(());
        };
        fs::create_dir_all(&dir)
            .map_err(|e| CheckpointError::Io(format!("cannot create {}: {}", dir.display(), e)))?;
        let bytes = cp.encode();
        let name = generation_file(cp.next_round);
        let tmp = dir.join(format!("{}.tmp", name));
        let fin = dir.join(&name);
        {
            let mut f = fs::File::create(&tmp).map_err(|e| {
                CheckpointError::Io(format!("cannot create {}: {}", tmp.display(), e))
            })?;
            if torn {
                // Simulated power cut halfway through the write. The tmp
                // file is torn; the rename never happens; the newest *real*
                // generation stays valid.
                let _ = f.write_all(&bytes[..bytes.len() / 2]);
                let _ = f.sync_all();
                std::process::exit(CRASH_EXIT_CODE);
            }
            f.write_all(&bytes).map_err(|e| {
                CheckpointError::Io(format!("cannot write {}: {}", tmp.display(), e))
            })?;
            f.sync_all().map_err(|e| {
                CheckpointError::Io(format!("cannot sync {}: {}", tmp.display(), e))
            })?;
        }
        fs::rename(&tmp, &fin).map_err(|e| {
            CheckpointError::Io(format!("cannot rename into {}: {}", fin.display(), e))
        })?;
        // Make the rename itself durable. Best-effort: some filesystems
        // reject fsync on a directory handle.
        if let Ok(d) = fs::File::open(&dir) {
            let _ = d.sync_all();
        }
        self.prune(&dir)
    }

    /// Remove generations beyond the newest `keep`.
    fn prune(&mut self, dir: &Path) -> Result<(), CheckpointError> {
        let mut generations = list_generations(dir)?;
        while generations.len() > self.keep {
            let (_, path) = generations.remove(0);
            fs::remove_file(&path).map_err(|e| {
                CheckpointError::Io(format!("cannot prune {}: {}", path.display(), e))
            })?;
        }
        Ok(())
    }
}

/// Validate that a restored vector has the length this run's architecture
/// and federation dictate. Checksummed data that decodes cleanly can still
/// come from a different configuration (model, client count, cluster
/// count); this turns that into a clear error instead of a panic deep in
/// `set_state_vec`.
pub fn check_len(what: &str, actual: usize, expected: usize) -> Result<(), CheckpointError> {
    if actual == expected {
        Ok(())
    } else {
        Err(CheckpointError::Mismatch(format!(
            "{}: checkpoint carries {} values, this run needs {} \
             (different model, federation, or hyper-parameters?)",
            what, actual, expected
        )))
    }
}

/// Validate that every restored cluster label names one of the `k`
/// cluster models the checkpoint carries.
pub fn check_labels(labels: &[usize], k: usize) -> Result<(), CheckpointError> {
    match labels.iter().find(|&&l| l >= k) {
        None => Ok(()),
        Some(l) => Err(CheckpointError::Mismatch(format!(
            "cluster label {} out of range for {} clusters",
            l, k
        ))),
    }
}

/// The error for a checkpoint whose [`MethodState`] variant is not the
/// one `method` writes.
pub fn wrong_state(method: &str, state: &MethodState) -> CheckpointError {
    CheckpointError::WrongState(format!(
        "{} cannot resume from a {} checkpoint",
        method,
        state.kind()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_checkpoint(state: MethodState) -> Checkpoint {
        let mut meter = CommMeter::new();
        meter.down(123);
        meter.up(45);
        Checkpoint {
            method: "TestMethod".into(),
            seed: 42,
            next_round: 7,
            meter,
            telemetry: FaultTelemetry {
                faults_injected: 1,
                updates_quarantined: 2,
                retries: 3,
                downlink_failures: 4,
                uplink_losses: 5,
                deadline_misses: 6,
            },
            history: vec![
                RoundRecord {
                    round: 1,
                    avg_acc: 0.25,
                    cum_mb: 0.5,
                },
                RoundRecord {
                    round: 2,
                    avg_acc: 0.5,
                    cum_mb: 1.0,
                },
            ],
            state,
            residuals: vec![(0, vec![0.25, -0.5]), (3, vec![f32::MIN_POSITIVE])],
        }
    }

    fn all_states() -> Vec<MethodState> {
        vec![
            MethodState::Global {
                state: vec![1.0, -2.5, f32::MIN_POSITIVE, -0.0],
            },
            MethodState::Lg(LgState {
                global_part: vec![0.5; 3],
                client_states: vec![vec![1.0, 2.0], vec![3.0, 4.0]],
            }),
            MethodState::Scaffold(ScaffoldState {
                state: vec![1.0],
                c_global: vec![0.1],
                c_clients: vec![vec![0.2], vec![0.3]],
            }),
            MethodState::FedDyn(FedDynState {
                state: vec![1.0],
                h: vec![-0.5],
                lambdas: vec![vec![0.0], vec![1e-30]],
            }),
            MethodState::Ifca {
                states: vec![vec![9.0; 4]; 3],
            },
            MethodState::Cfl {
                states: vec![vec![1.0], vec![2.0]],
                members: vec![vec![0, 2], vec![1]],
                last_update: vec![Some(vec![0.5]), None, Some(vec![-0.5])],
                reference_norm: Some(1.25),
            },
            MethodState::Clustered {
                states: vec![vec![7.0; 2]; 2],
                labels: vec![0, 1, 0],
            },
            MethodState::FedClust {
                federation_json: "{\"labels\":[0,1]}".into(),
            },
        ]
    }

    #[test]
    fn every_state_variant_round_trips() {
        for state in all_states() {
            let cp = sample_checkpoint(state);
            let image = cp.encode();
            let back = Checkpoint::decode(&image).unwrap();
            assert_eq!(back, cp);
            // Idempotent re-encode: byte-identical images.
            assert_eq!(back.encode(), image);
        }
    }

    #[test]
    fn unsupported_version_is_named_in_the_error() {
        let cp = sample_checkpoint(MethodState::Global { state: vec![1.0] });
        let mut future = cp.encode();
        future[8] = 99;
        let err = Checkpoint::decode(&future).unwrap_err();
        assert!(err.to_string().contains("version 99"), "{}", err);
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("fedclust-ckpt-unit-{}-{}", tag, std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn atomic_write_and_generation_rotation() {
        let dir = tmp_dir("rotate");
        let mut ckpt = Checkpointer::new(&dir).keep(2);
        for round in 0..5 {
            ckpt.on_round_end(round, || {
                let mut cp = sample_checkpoint(MethodState::Global { state: vec![1.0] });
                cp.next_round = round + 1;
                cp
            })
            .unwrap();
        }
        let generations = list_generations(&dir).unwrap();
        let nums: Vec<usize> = generations.iter().map(|&(g, _)| g).collect();
        assert_eq!(nums, vec![4, 5], "keep=2 retains the newest two");
        // No tmp litter after clean writes.
        let tmps = fs::read_dir(&dir)
            .unwrap()
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .file_name()
                    .to_string_lossy()
                    .ends_with(".tmp")
            })
            .count();
        assert_eq!(tmps, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn cadence_skips_off_rounds() {
        let dir = tmp_dir("cadence");
        let mut ckpt = Checkpointer::new(&dir).every(3).keep(10);
        for round in 0..7 {
            ckpt.on_round_end(round, || {
                let mut cp = sample_checkpoint(MethodState::Global { state: vec![1.0] });
                cp.next_round = round + 1;
                cp
            })
            .unwrap();
        }
        let nums: Vec<usize> = list_generations(&dir)
            .unwrap()
            .iter()
            .map(|&(g, _)| g)
            .collect();
        assert_eq!(nums, vec![3, 6], "every=3 writes after rounds 2 and 5");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn loader_falls_back_over_corrupt_generations() {
        let dir = tmp_dir("fallback");
        let mut ckpt = Checkpointer::new(&dir).keep(10);
        for round in 0..3 {
            ckpt.on_round_end(round, || {
                let mut cp = sample_checkpoint(MethodState::Global { state: vec![1.0] });
                cp.next_round = round + 1;
                cp
            })
            .unwrap();
        }
        // Corrupt the newest generation, truncate the middle one.
        let newest = dir.join(generation_file(3));
        let mut bytes = fs::read(&newest).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x55;
        fs::write(&newest, &bytes).unwrap();
        let middle = dir.join(generation_file(2));
        let bytes = fs::read(&middle).unwrap();
        fs::write(&middle, &bytes[..bytes.len() / 3]).unwrap();

        let (found, diagnostics) = load_latest(&dir).unwrap();
        let cp = found.expect("generation 1 is still valid");
        assert_eq!(cp.next_round, 1);
        assert_eq!(diagnostics.len(), 2, "{:?}", diagnostics);

        // Resume validation: matching run resumes, others are refused.
        let mut resuming = Checkpointer::new(&dir).resume(true);
        let point = resuming.resume_point("TestMethod", 42).unwrap();
        assert_eq!(point.unwrap().next_round, 1);
        assert!(resuming
            .diagnostics()
            .iter()
            .any(|d| d.contains("resuming")));
        let mut wrong_seed = Checkpointer::new(&dir).resume(true);
        assert!(matches!(
            wrong_seed.resume_point("TestMethod", 43),
            Err(CheckpointError::Mismatch(_))
        ));
        let mut wrong_method = Checkpointer::new(&dir).resume(true);
        assert!(matches!(
            wrong_method.resume_point("Other", 42),
            Err(CheckpointError::Mismatch(_))
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn all_generations_corrupt_starts_fresh_with_diagnostics() {
        let dir = tmp_dir("all-corrupt");
        let mut ckpt = Checkpointer::new(&dir).keep(10);
        for round in 0..2 {
            ckpt.on_round_end(round, || {
                let mut cp = sample_checkpoint(MethodState::Global { state: vec![1.0] });
                cp.next_round = round + 1;
                cp
            })
            .unwrap();
        }
        for (_, path) in list_generations(&dir).unwrap() {
            fs::write(&path, b"not a checkpoint").unwrap();
        }
        let mut resuming = Checkpointer::new(&dir).resume(true);
        assert_eq!(resuming.resume_point("TestMethod", 42).unwrap(), None);
        assert!(
            resuming
                .diagnostics()
                .iter()
                .any(|d| d.contains("starting fresh")),
            "{:?}",
            resuming.diagnostics()
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn disabled_checkpointer_is_inert() {
        let mut ckpt = Checkpointer::disabled();
        assert!(!ckpt.is_enabled());
        assert_eq!(ckpt.resume_point("X", 0).unwrap(), None);
        let mut built = false;
        ckpt.on_round_end(0, || {
            built = true;
            sample_checkpoint(MethodState::Global { state: vec![] })
        })
        .unwrap();
        assert!(!built, "a disabled checkpointer never builds a snapshot");
    }

    #[test]
    fn resume_off_ignores_existing_generations() {
        let dir = tmp_dir("no-resume");
        let mut ckpt = Checkpointer::new(&dir);
        ckpt.on_round_end(0, || {
            let mut cp = sample_checkpoint(MethodState::Global { state: vec![1.0] });
            cp.next_round = 1;
            cp
        })
        .unwrap();
        let mut fresh = Checkpointer::new(&dir); // resume defaults to off
        assert_eq!(fresh.resume_point("TestMethod", 42).unwrap(), None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn error_display_is_descriptive() {
        let e = CheckpointError::Corrupt("checksum mismatch".into());
        assert!(e.to_string().contains("corrupt"));
        assert!(CheckpointError::Io("x".into()).to_string().contains("I/O"));
        assert!(check_len("state", 3, 4).is_err());
        assert!(check_len("state", 4, 4).is_ok());
    }
}
