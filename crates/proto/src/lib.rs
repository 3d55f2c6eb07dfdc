//! `fedclust-proto`: the byte layer every on-disk and on-wire format in the
//! workspace is built on ([`bytes`]), the wire protocol spoken between
//! `fedclustd` and its worker processes, plus the shared bounded-retry
//! policy used by both the in-process fault-injecting transport and the
//! real network path.
//!
//! Design constraints, in order:
//!
//! 1. **Total decoding.** Every byte sequence fed to the decoder either
//!    yields a message or a typed [`ProtoError`] — never a panic, and never
//!    an allocation larger than [`wire::MAX_PAYLOAD_BYTES`] plus constant
//!    overhead: every read goes through [`bytes::Reader`].
//! 2. **Determinism.** Nothing in this crate draws wall-clock entropy. The
//!    retry backoff jitter derives from
//!    `(seed, streams::RETRY_BACKOFF, round, client, attempt)` so a fleet
//!    of workers retries on a reproducible schedule.
//! 3. **Wire honesty.** Payload layouts are explicit little-endian byte
//!    formats (documented per message) so `CommMeter` charges can be pinned
//!    against actual frame sizes in tests.

// Library code does not panic, and compares floats exactly only with a
// stated reason; binaries and tests are exempt (DESIGN.md §8).
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::todo,
        clippy::unimplemented,
        clippy::unreachable,
        clippy::float_cmp
    )
)]

pub mod bytes;
pub mod msg;
pub mod retry;
pub mod wire;

pub use msg::{
    frame_keys, read_msg, write_msg, Msg, PushBody, MAX_ARGV, MAX_STR_BYTES, MAX_VEC_ELEMS,
};
pub use retry::RetryPolicy;
pub use wire::{
    decode_frame, decode_frame_prefix, encode_frame, read_frame, read_raw_frame, Frame, ProtoError,
    CHECKSUM_BYTES, HEADER_BYTES, MAGIC, MAX_PAYLOAD_BYTES, PROTO_VERSION,
};
