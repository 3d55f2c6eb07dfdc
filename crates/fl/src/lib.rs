//! # fedclust-fl
//!
//! The federated-learning simulation engine and the nine baseline methods
//! the paper compares FedClust against.
//!
//! * [`config::FlConfig`] — the shared experiment knobs (rounds, client
//!   sampling rate, local epochs, optimiser settings, seed),
//! * [`comm::CommMeter`] — exact byte accounting of every up/down transfer
//!   (Tables 4 and 5 are derived from this),
//! * [`codec`] — upload compression plugins (int8/int4 quantization,
//!   top-k sparsification with error feedback, delta encoding) with
//!   wire-honest encoded-byte accounting,
//! * [`faults`] — deterministic fault injection (stragglers, link loss,
//!   update corruption, process crashes) and the server's resilience
//!   policy,
//! * [`checkpoint`] — crash-safe durable checkpoints with bit-identical
//!   resume (torn-write-safe atomic writes, checksummed format,
//!   generation rotation, corrupt-generation fallback),
//! * [`metrics`] — round telemetry, run results, rounds/Mb-to-target,
//! * [`json`] — the one JSON writer and reader (`--json`, FedClust's
//!   snapshot),
//! * [`engine`] — the shared round machinery: deterministic client
//!   sampling, parallel local training, weighted state averaging, and
//!   parallel all-client evaluation,
//! * [`driver`] — the one round loop every method runs under
//!   ([`driver::run_federation`]): resume, evaluation cadence, checkpoint
//!   assembly and the run result, over the narrow [`driver::Method`] trait,
//! * [`methods`] — the baselines: `Local`, `FedAvg`, `FedProx`, `FedNova`,
//!   `LG-FedAvg`, `Per-FedAvg`, `CFL` (Sattler), `IFCA`, `PACFL`.
//!
//! FedClust itself lives in the `fedclust` crate and plugs into the same
//! [`methods::FlMethod`] trait.

pub mod checkpoint;
pub mod codec;
pub mod comm;
pub mod config;
pub mod driver;
pub mod engine;
pub mod faults;
pub mod json;
pub mod methods;
pub mod metrics;

pub use checkpoint::{Checkpoint, CheckpointError, Checkpointer, MethodState};
pub use codec::{BaseCodec, CodecSpec};
pub use comm::CommMeter;
pub use config::FlConfig;
pub use driver::{run_federation, Method, NoCheckpoints, RoundCtx};
pub use faults::{CrashPlan, FaultPlan, FaultTelemetry, Transport};
pub use methods::FlMethod;
pub use metrics::{RoundRecord, RunResult};
