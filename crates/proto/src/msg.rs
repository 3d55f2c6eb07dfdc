//! Message layer: typed messages over [`crate::wire`] frames.
//!
//! Per-message payload layouts (all little-endian, offsets in bytes):
//!
//! ```text
//! Hello    (1): u16 version
//! Welcome  (2): u32 worker_id, u32 argc, argc × { u32 len, utf-8 bytes }
//! Reject   (3): u32 len, utf-8 bytes
//! PullWork (4): empty
//! Work     (5): u32 round, u32 client, u32 epochs,
//!               u8 has_prox, f32 prox_mu (zero bits when absent),
//!               u32 upload_start, u32 upload_end,
//!               vec_f32 state, vec_f32 residual
//! Wait     (6): empty
//! Push     (8): u8 mode (always 0), u32 round, u32 client, u32 steps,
//!               f32 weight, u8 encoding, raw: vec_f32 state
//!                                        codec: bytes wire, vec_f32 residual
//! Ack      (9): u32 round, u32 client
//! Done    (10): empty
//! ```
//!
//! where `vec_f32` = `u32 count` + `count × f32` and `bytes` =
//! `u32 len` + `len` raw bytes. `Work` and `Ack` place `round` at payload
//! offset 0 and `client` at offset 4, `Push` at 1 and 5, so the chaos
//! proxy can key its per-frame fate draws on `(round, client)` without a
//! full decode — see [`frame_keys`].

use crate::bytes::{Reader, Writer};
use crate::wire::{self, Frame, ProtoError};
use std::io::{Read, Write};
use std::ops::Range;

/// Message kind bytes, from 1: 0 is reserved as "never valid", and 7 is
/// unassigned.
pub const KIND_HELLO: u8 = 1;
pub const KIND_WELCOME: u8 = 2;
pub const KIND_REJECT: u8 = 3;
pub const KIND_PULL_WORK: u8 = 4;
pub const KIND_WORK: u8 = 5;
pub const KIND_WAIT: u8 = 6;
pub const KIND_PUSH: u8 = 8;
pub const KIND_ACK: u8 = 9;
pub const KIND_DONE: u8 = 10;

/// Cap on f32 vector element counts (16 Mi elements = 64 MiB).
pub const MAX_VEC_ELEMS: usize = wire::MAX_PAYLOAD_BYTES / 4;
/// Cap on string field byte lengths.
pub const MAX_STR_BYTES: usize = 1 << 16;
/// Cap on `Welcome` argv entries.
pub const MAX_ARGV: usize = 128;

/// The upload a worker pushes back: either the raw slice (codec "none")
/// or the codec wire bytes plus the worker's updated error-feedback
/// residual.
#[derive(Debug, Clone, PartialEq)]
pub enum PushBody {
    Raw(Vec<f32>),
    Encoded { wire: Vec<u8>, residual: Vec<f32> },
}

const ENCODING_RAW: u8 = 0;
const ENCODING_CODEC: u8 = 1;

/// Every message `fedclustd`, workers, and the chaos proxy exchange.
#[derive(Debug, Clone, PartialEq)]
pub enum Msg {
    /// Worker → server, first frame on a connection.
    Hello { version: u16 },
    /// Server → worker: accepted; `argv` is the canonical `run`
    /// command line the worker replays to rebuild the identical
    /// dataset/config/model template locally.
    Welcome { worker_id: u32, argv: Vec<String> },
    /// Server → worker: handshake refused (version skew, bad state).
    Reject { reason: String },
    /// Worker → server: give me a unit of work.
    PullWork,
    /// Server → worker: train `client` at `round` from `state`, then
    /// upload the slice `upload` of the trained state (all of it in a
    /// training round, the selected partial weights in FedClust's warm-up).
    Work {
        round: u32,
        client: u32,
        epochs: u32,
        prox_mu: Option<f32>,
        upload: Range<u32>,
        state: Vec<f32>,
        residual: Vec<f32>,
    },
    /// Server → worker: the keep-alive answer to a `PullWork` that found
    /// nothing to do; pull again.
    Wait,
    /// Worker → server: finished unit of work.
    Push {
        /// Always 0: decoded only as that, so each push has one encoding.
        mode: u8,
        round: u32,
        client: u32,
        steps: u32,
        weight: f32,
        body: PushBody,
    },
    /// Server → worker: push accepted (idempotent; duplicates of an
    /// already-recorded `(round, client)` are acked and discarded).
    Ack { round: u32, client: u32 },
    /// Server → worker: run complete, disconnect.
    Done,
}

impl Msg {
    /// The frame kind byte for this message.
    pub fn kind(&self) -> u8 {
        match self {
            Msg::Hello { .. } => KIND_HELLO,
            Msg::Welcome { .. } => KIND_WELCOME,
            Msg::Reject { .. } => KIND_REJECT,
            Msg::PullWork => KIND_PULL_WORK,
            Msg::Work { .. } => KIND_WORK,
            Msg::Wait => KIND_WAIT,
            Msg::Push { .. } => KIND_PUSH,
            Msg::Ack { .. } => KIND_ACK,
            Msg::Done => KIND_DONE,
        }
    }

    /// Encode into a complete frame (header + payload + checksum).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::default();
        match self {
            Msg::Hello { version } => w.u16(*version),
            Msg::Welcome { worker_id, argv } => {
                w.u32(*worker_id);
                w.u32(argv.len() as u32);
                for arg in argv {
                    put_str(&mut w, arg);
                }
            }
            Msg::Reject { reason } => put_str(&mut w, reason),
            Msg::PullWork | Msg::Wait | Msg::Done => {}
            Msg::Work {
                round,
                client,
                epochs,
                prox_mu,
                upload,
                state,
                residual,
            } => {
                w.u32(*round);
                w.u32(*client);
                w.u32(*epochs);
                w.u8(u8::from(prox_mu.is_some()));
                w.f32(prox_mu.unwrap_or(0.0));
                w.u32(upload.start);
                w.u32(upload.end);
                put_f32s(&mut w, state);
                put_f32s(&mut w, residual);
            }
            Msg::Push {
                mode,
                round,
                client,
                steps,
                weight,
                body,
            } => {
                w.u8(*mode);
                w.u32(*round);
                w.u32(*client);
                w.u32(*steps);
                w.f32(*weight);
                match body {
                    PushBody::Raw(state) => {
                        w.u8(ENCODING_RAW);
                        put_f32s(&mut w, state);
                    }
                    PushBody::Encoded { wire, residual } => {
                        w.u8(ENCODING_CODEC);
                        put_bytes(&mut w, wire);
                        put_f32s(&mut w, residual);
                    }
                }
            }
            Msg::Ack { round, client } => {
                w.u32(*round);
                w.u32(*client);
            }
        }
        wire::encode_frame(self.kind(), &w.into_bytes())
    }

    /// Decode a validated frame into a typed message. Total: hostile
    /// payloads produce [`ProtoError`], never a panic, and the payload
    /// must be consumed exactly (no trailing bytes).
    pub fn decode_frame(frame: &Frame) -> Result<Msg, ProtoError> {
        let mut r = Reader::new(&frame.payload);
        let msg = match frame.kind {
            KIND_HELLO => Msg::Hello { version: r.u16()? },
            KIND_WELCOME => {
                let worker_id = r.u32()?;
                let argc = decode_count(&mut r, MAX_ARGV)?;
                let argv = (0..argc)
                    .map(|_| decode_str(&mut r))
                    .collect::<Result<_, _>>()?;
                Msg::Welcome { worker_id, argv }
            }
            KIND_REJECT => Msg::Reject {
                reason: decode_str(&mut r)?,
            },
            KIND_PULL_WORK => Msg::PullWork,
            KIND_WORK => {
                let round = r.u32()?;
                let client = r.u32()?;
                let epochs = r.u32()?;
                let has_prox = r.u8()?;
                if has_prox > 1 {
                    return Err(ProtoError::BadField("has_prox"));
                }
                let prox_raw = r.f32()?;
                // An absent coefficient is written as zero bits; anything
                // else would be a second encoding of the same message.
                if has_prox == 0 && prox_raw.to_bits() != 0 {
                    return Err(ProtoError::BadField("prox_mu"));
                }
                Msg::Work {
                    round,
                    client,
                    epochs,
                    prox_mu: (has_prox == 1).then_some(prox_raw),
                    upload: {
                        let start = r.u32()?;
                        start..r.u32()?
                    },
                    state: decode_f32s(&mut r)?,
                    residual: decode_f32s(&mut r)?,
                }
            }
            KIND_WAIT => Msg::Wait,
            KIND_PUSH => {
                let mode = r.u8()?;
                if mode != 0 {
                    return Err(ProtoError::BadField("mode"));
                }
                let round = r.u32()?;
                let client = r.u32()?;
                let steps = r.u32()?;
                let weight = r.f32()?;
                let encoding = r.u8()?;
                let body = match encoding {
                    ENCODING_RAW => PushBody::Raw(decode_f32s(&mut r)?),
                    ENCODING_CODEC => PushBody::Encoded {
                        wire: decode_bytes(&mut r)?,
                        residual: decode_f32s(&mut r)?,
                    },
                    _ => return Err(ProtoError::BadField("encoding")),
                };
                Msg::Push {
                    mode,
                    round,
                    client,
                    steps,
                    weight,
                    body,
                }
            }
            KIND_ACK => Msg::Ack {
                round: r.u32()?,
                client: r.u32()?,
            },
            KIND_DONE => Msg::Done,
            other => return Err(ProtoError::BadKind(other)),
        };
        r.finish()?;
        Ok(msg)
    }
}

/// Write one message to a stream as a frame.
pub fn write_msg<W: Write>(w: &mut W, msg: &Msg) -> Result<(), ProtoError> {
    wire::write_frame_bytes(w, &msg.encode())
}

/// Read one message from a stream (checksum-verified).
pub fn read_msg<R: Read>(r: &mut R) -> Result<Msg, ProtoError> {
    let frame = wire::read_frame(r)?;
    Msg::decode_frame(&frame)
}

/// Extract the `(round, client)` key from a raw frame's payload when
/// its kind carries one, without a full decode. Used by the chaos proxy
/// to key its deterministic fate draws. Returns `None` for kinds that
/// carry no key or payloads too short to hold one.
pub fn frame_keys(kind: u8, payload: &[u8]) -> Option<(u32, u32)> {
    let at = match kind {
        KIND_PUSH => 1usize,
        KIND_WORK | KIND_ACK => 0usize,
        _ => return None,
    };
    let mut r = Reader::new(payload);
    r.take(at).ok()?;
    Some((r.u32().ok()?, r.u32().ok()?))
}

/// `u32 count` + `count × f32`.
fn put_f32s(w: &mut Writer, v: &[f32]) {
    assert!(v.len() <= MAX_VEC_ELEMS, "vector exceeds wire cap");
    w.u32(v.len() as u32);
    w.f32s(v);
}

/// `u32 len` + `len` raw bytes.
fn put_bytes(w: &mut Writer, v: &[u8]) {
    assert!(v.len() <= wire::MAX_PAYLOAD_BYTES, "bytes exceed wire cap");
    w.u32(v.len() as u32);
    w.bytes(v);
}

fn put_str(w: &mut Writer, s: &str) {
    assert!(s.len() <= MAX_STR_BYTES, "string exceeds wire cap");
    put_bytes(w, s.as_bytes());
}

/// A `u32` count checked against its field's cap, so a hostile count
/// errors before the read it sizes is even attempted.
fn decode_count(r: &mut Reader<'_>, cap: usize) -> Result<usize, ProtoError> {
    let n = r.u32()? as usize;
    if n > cap {
        return Err(ProtoError::ImplausibleCount(n));
    }
    Ok(n)
}

fn decode_f32s(r: &mut Reader<'_>) -> Result<Vec<f32>, ProtoError> {
    let n = decode_count(r, MAX_VEC_ELEMS)?;
    Ok(r.f32s(n)?)
}

fn decode_bytes(r: &mut Reader<'_>) -> Result<Vec<u8>, ProtoError> {
    let n = decode_count(r, wire::MAX_PAYLOAD_BYTES)?;
    Ok(r.take(n)?.to_vec())
}

fn decode_str(r: &mut Reader<'_>) -> Result<String, ProtoError> {
    let n = decode_count(r, MAX_STR_BYTES)?;
    Ok(r.str(n)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::decode_frame;

    fn roundtrip(msg: &Msg) -> Msg {
        let bytes = msg.encode();
        let frame = decode_frame(&bytes).unwrap();
        assert_eq!(frame.kind, msg.kind());
        Msg::decode_frame(&frame).unwrap()
    }

    #[test]
    fn all_variants_roundtrip() {
        let msgs = vec![
            Msg::Hello { version: 1 },
            Msg::Welcome {
                worker_id: 3,
                argv: vec!["run".into(), "--seed".into(), "42".into()],
            },
            Msg::Reject {
                reason: "version skew".into(),
            },
            Msg::PullWork,
            Msg::Work {
                round: 4,
                client: 17,
                epochs: 3,
                prox_mu: Some(0.01),
                upload: 0..3,
                state: vec![1.0, -2.5, 0.0],
                residual: vec![0.125],
            },
            Msg::Work {
                round: 0,
                client: 2,
                epochs: 1,
                prox_mu: None,
                upload: Range { start: 7, end: 2 },
                state: vec![],
                residual: vec![],
            },
            Msg::Wait,
            Msg::Push {
                mode: 0,
                round: 4,
                client: 17,
                steps: 12,
                weight: 80.0,
                body: PushBody::Encoded {
                    wire: vec![9, 8, 7],
                    residual: vec![0.5, -0.5],
                },
            },
            Msg::Push {
                mode: 0,
                round: 0,
                client: 2,
                steps: 5,
                weight: 10.0,
                body: PushBody::Raw(vec![3.0, 4.0]),
            },
            Msg::Ack {
                round: 4,
                client: 17,
            },
            Msg::Done,
        ];
        for msg in &msgs {
            assert_eq!(&roundtrip(msg), msg);
        }
    }

    #[test]
    fn stream_read_write_roundtrip() {
        let mut buf = Vec::new();
        let work = Msg::Work {
            round: 1,
            client: 2,
            epochs: 3,
            prox_mu: None,
            upload: 0..1,
            state: vec![1.0],
            residual: vec![],
        };
        write_msg(&mut buf, &work).unwrap();
        write_msg(&mut buf, &Msg::Done).unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        assert_eq!(read_msg(&mut cursor), Ok(work));
        assert_eq!(read_msg(&mut cursor), Ok(Msg::Done));
        // Stream exhausted → clean EOF error, not a panic.
        assert_eq!(
            read_msg(&mut cursor),
            Err(ProtoError::Io(std::io::ErrorKind::UnexpectedEof))
        );
    }

    #[test]
    fn frame_keys_pinned_offsets() {
        // The chaos proxy depends on these exact payload offsets; a
        // layout change must show up here, not as silent mis-keying.
        for msg in [
            Msg::Work {
                round: 7,
                client: 13,
                epochs: 1,
                prox_mu: None,
                upload: 0..0,
                state: vec![],
                residual: vec![],
            },
            Msg::Push {
                mode: 0,
                round: 7,
                client: 13,
                steps: 1,
                weight: 1.0,
                body: PushBody::Raw(vec![]),
            },
            Msg::Ack {
                round: 7,
                client: 13,
            },
        ] {
            let frame = decode_frame(&msg.encode()).unwrap();
            assert_eq!(
                frame_keys(frame.kind, &frame.payload),
                Some((7, 13)),
                "kind {} lost its (round, client) key",
                frame.kind
            );
        }
        let hello = decode_frame(&Msg::Hello { version: 1 }.encode()).unwrap();
        assert_eq!(frame_keys(hello.kind, &hello.payload), None);
        assert_eq!(frame_keys(KIND_WORK, &[0, 1]), None); // too short
    }

    #[test]
    fn hostile_fields_error_not_panic() {
        // Unknown kind.
        let frame = Frame {
            kind: 99,
            payload: vec![],
        };
        assert_eq!(Msg::decode_frame(&frame), Err(ProtoError::BadKind(99)));

        // A mode byte other than 0 in Push.
        let bytes = Msg::Push {
            mode: 0,
            round: 0,
            client: 0,
            steps: 1,
            weight: 1.0,
            body: PushBody::Raw(vec![]),
        }
        .encode();
        let mut push = decode_frame(&bytes).unwrap();
        push.payload[0] = 1;
        assert_eq!(Msg::decode_frame(&push), Err(ProtoError::BadField("mode")));

        // Hostile vector count in Push: claims u32::MAX elements.
        let mut payload = vec![0];
        payload.extend_from_slice(&0u32.to_le_bytes()); // round
        payload.extend_from_slice(&0u32.to_le_bytes()); // client
        payload.extend_from_slice(&1u32.to_le_bytes()); // steps
        payload.extend_from_slice(&1.0f32.to_le_bytes()); // weight
        payload.push(ENCODING_RAW);
        payload.extend_from_slice(&u32::MAX.to_le_bytes()); // count
        let frame = Frame {
            kind: KIND_PUSH,
            payload,
        };
        assert_eq!(
            Msg::decode_frame(&frame),
            Err(ProtoError::ImplausibleCount(u32::MAX as usize))
        );

        // Trailing garbage after a well-formed Ack.
        let mut ack = decode_frame(
            &Msg::Ack {
                round: 1,
                client: 2,
            }
            .encode(),
        )
        .unwrap();
        ack.payload.push(0xAB);
        assert_eq!(Msg::decode_frame(&ack), Err(ProtoError::TrailingBytes(1)));

        // Non-UTF-8 reject reason.
        let mut payload = Vec::new();
        payload.extend_from_slice(&2u32.to_le_bytes());
        payload.extend_from_slice(&[0xff, 0xfe]);
        let frame = Frame {
            kind: KIND_REJECT,
            payload,
        };
        assert_eq!(Msg::decode_frame(&frame), Err(ProtoError::BadUtf8));
    }

    #[test]
    fn welcome_argv_cap_enforced() {
        let mut payload = Vec::new();
        payload.extend_from_slice(&1u32.to_le_bytes()); // worker_id
        payload.extend_from_slice(&(MAX_ARGV as u32 + 1).to_le_bytes());
        let frame = Frame {
            kind: KIND_WELCOME,
            payload,
        };
        assert_eq!(
            Msg::decode_frame(&frame),
            Err(ProtoError::ImplausibleCount(MAX_ARGV + 1))
        );
    }
}
