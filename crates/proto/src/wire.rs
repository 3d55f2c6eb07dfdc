//! Frame layer: length-prefixed, versioned, checksummed byte frames.
//!
//! Layout (read and written through [`crate::bytes`]):
//!
//! ```text
//! offset   size  field
//! 0        4     magic "FCLP"
//! 4        2     protocol version
//! 6        1     message kind
//! 7        1     flags (reserved, must be zero)
//! 8        4     payload length in bytes (<= MAX_PAYLOAD_BYTES)
//! 12       len   payload
//! 12+len   8     FNV-1a-64 checksum over header + payload
//! ```
//!
//! The checksum covers the header so a flipped kind or length byte is
//! detected, not just payload damage. A hostile length field errors with
//! [`ProtoError::Oversized`] *before* any allocation happens, so a peer
//! cannot make the reader balloon its heap with a 12-byte frame.

use crate::bytes::{self, Reader, Writer};
use std::io::{Read, Write};

/// First bytes of every frame; anything else means the peer is not
/// speaking this protocol (or the stream lost sync) and the connection
/// must be dropped rather than resynchronised.
pub const MAGIC: [u8; 4] = *b"FCLP";

/// Protocol version carried in every frame. Version negotiation is
/// exact-match: a `Hello` with a different version is answered with
/// `Reject` and the connection closed.
pub const PROTO_VERSION: u16 = 2;

/// Fixed header size: magic + version + kind + flags + payload length.
pub const HEADER_BYTES: usize = 12;

/// Trailing FNV-1a-64 checksum size.
pub const CHECKSUM_BYTES: usize = bytes::CHECKSUM_BYTES;

/// Everything in a frame that is not payload.
const FRAMING_BYTES: usize = HEADER_BYTES + CHECKSUM_BYTES;

/// Hard cap on a single frame's payload. Large enough for a full
/// `VggMini` state vector plus residual (each f32 = 4 bytes), small
/// enough that a hostile length cannot cause a meaningful allocation
/// spike: 64 MiB.
pub const MAX_PAYLOAD_BYTES: usize = 1 << 26;

/// Everything that can go wrong while decoding bytes into frames or
/// messages. Deliberately mirrors the checkpoint codec's error taxonomy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// Fewer bytes than the layout requires.
    Truncated,
    /// The first four bytes are not [`MAGIC`].
    BadMagic([u8; 4]),
    /// Frame version differs from [`PROTO_VERSION`].
    BadVersion(u16),
    /// Unknown message kind byte.
    BadKind(u8),
    /// Reserved flags byte was non-zero.
    BadFlags(u8),
    /// Stored checksum does not match the recomputed one.
    Checksum,
    /// Header-declared payload length exceeds [`MAX_PAYLOAD_BYTES`].
    Oversized(usize),
    /// A count field exceeds its per-message cap.
    ImplausibleCount(usize),
    /// Payload bytes left over after the message was fully decoded.
    TrailingBytes(usize),
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// A field held a value outside its legal range (e.g. mode byte).
    BadField(&'static str),
    /// Underlying socket error, reduced to its kind so the error stays
    /// comparable in tests and retry logic can branch on it.
    Io(std::io::ErrorKind),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Truncated => write!(f, "frame truncated"),
            ProtoError::BadMagic(m) => write!(f, "bad magic {m:02x?}"),
            ProtoError::BadVersion(v) => {
                write!(f, "protocol version {v} (expected {PROTO_VERSION})")
            }
            ProtoError::BadKind(k) => write!(f, "unknown message kind {k}"),
            ProtoError::BadFlags(b) => write!(f, "reserved flags byte {b:#04x} non-zero"),
            ProtoError::Checksum => write!(f, "frame checksum mismatch"),
            ProtoError::Oversized(n) => {
                write!(f, "payload length {n} exceeds cap {MAX_PAYLOAD_BYTES}")
            }
            ProtoError::ImplausibleCount(n) => write!(f, "implausible element count {n}"),
            ProtoError::TrailingBytes(n) => write!(f, "{n} trailing payload bytes"),
            ProtoError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            ProtoError::BadField(name) => write!(f, "field `{name}` out of range"),
            ProtoError::Io(kind) => write!(f, "io error: {kind:?}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<std::io::Error> for ProtoError {
    fn from(e: std::io::Error) -> Self {
        ProtoError::Io(e.kind())
    }
}

impl From<bytes::Error> for ProtoError {
    fn from(e: bytes::Error) -> Self {
        match e {
            bytes::Error::Truncated { .. } => ProtoError::Truncated,
            bytes::Error::Checksum => ProtoError::Checksum,
            bytes::Error::Trailing(n) => ProtoError::TrailingBytes(n),
            bytes::Error::Utf8 => ProtoError::BadUtf8,
        }
    }
}

/// A validated frame: version checked, flags zero, checksum verified.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    pub kind: u8,
    pub payload: Vec<u8>,
}

/// Assemble a full frame (header + payload + checksum) for `kind`.
///
/// Panics only if `payload` exceeds [`MAX_PAYLOAD_BYTES`], which is a
/// programming error on the *sending* side, never reachable from
/// received bytes.
pub fn encode_frame(kind: u8, payload: &[u8]) -> Vec<u8> {
    assert!(
        payload.len() <= MAX_PAYLOAD_BYTES,
        "frame payload {} exceeds cap {}",
        payload.len(),
        MAX_PAYLOAD_BYTES
    );
    let mut out = Writer::with_capacity(FRAMING_BYTES + payload.len());
    out.bytes(&MAGIC);
    out.u16(PROTO_VERSION);
    out.u8(kind);
    out.u8(0); // flags, reserved
    out.u32(payload.len() as u32);
    out.bytes(payload);
    bytes::seal(out.into_bytes())
}

/// Validate a header: magic, version, flags, and payload-length cap.
/// Returns the kind byte and the declared payload length. Does not touch
/// the payload.
fn decode_header(head: &[u8]) -> Result<(u8, usize), ProtoError> {
    let mut r = Reader::new(head);
    let magic = r.array()?;
    if magic != MAGIC {
        return Err(ProtoError::BadMagic(magic));
    }
    let version = r.u16()?;
    if version != PROTO_VERSION {
        return Err(ProtoError::BadVersion(version));
    }
    let kind = r.u8()?;
    let flags = r.u8()?;
    if flags != 0 {
        return Err(ProtoError::BadFlags(flags));
    }
    let len = r.u32()? as usize;
    if len > MAX_PAYLOAD_BYTES {
        return Err(ProtoError::Oversized(len));
    }
    Ok((kind, len))
}

/// Decode one frame from the front of `bytes`, returning it together
/// with the number of bytes consumed. Extra bytes after the frame are
/// left for the caller (streams carry back-to-back frames).
pub fn decode_frame_prefix(bytes: &[u8]) -> Result<(Frame, usize), ProtoError> {
    let head = bytes.get(..HEADER_BYTES).ok_or(ProtoError::Truncated)?;
    let (kind, len) = decode_header(head)?;
    let total = FRAMING_BYTES
        .checked_add(len)
        .ok_or(ProtoError::Truncated)?;
    let body = bytes::unseal(bytes.get(..total).ok_or(ProtoError::Truncated)?)?;
    let payload = body.get(HEADER_BYTES..).ok_or(ProtoError::Truncated)?;
    Ok((
        Frame {
            kind,
            payload: payload.to_vec(),
        },
        total,
    ))
}

/// Decode a buffer that must hold exactly one frame.
pub fn decode_frame(bytes: &[u8]) -> Result<Frame, ProtoError> {
    let (frame, consumed) = decode_frame_prefix(bytes)?;
    let extra = bytes.len().saturating_sub(consumed);
    if extra != 0 {
        return Err(ProtoError::TrailingBytes(extra));
    }
    Ok(frame)
}

/// Read one checksum-verified frame from a stream.
///
/// The header is read and validated first, so a hostile declared length
/// errors before any payload-sized allocation. The subsequent allocation
/// is bounded by [`MAX_PAYLOAD_BYTES`] + [`CHECKSUM_BYTES`].
pub fn read_frame<R: Read>(r: &mut R) -> Result<Frame, ProtoError> {
    let raw = read_raw_frame(r)?;
    decode_frame(&raw)
}

/// Read one frame's raw bytes (header + payload + checksum) from a
/// stream *without* verifying the checksum. This is the chaos proxy's
/// read path: it must stay frame-aligned (header is still validated so
/// lengths are trusted-bounded) but forward damaged payloads verbatim —
/// corruption detection is the receiving endpoint's job.
pub fn read_raw_frame<R: Read>(r: &mut R) -> Result<Vec<u8>, ProtoError> {
    let mut head = [0u8; HEADER_BYTES];
    r.read_exact(&mut head)?;
    let (_, len) = decode_header(&head)?;
    let total = FRAMING_BYTES
        .checked_add(len)
        .ok_or(ProtoError::Truncated)?;
    let mut out = vec![0u8; total];
    let (front, rest) = out.split_at_mut(HEADER_BYTES);
    front.copy_from_slice(&head);
    r.read_exact(rest)?;
    Ok(out)
}

/// Write pre-encoded frame bytes to a stream.
pub fn write_frame_bytes<W: Write>(w: &mut W, bytes: &[u8]) -> Result<(), ProtoError> {
    w.write_all(bytes)?;
    w.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_prefix_and_exact() {
        let frame_bytes = encode_frame(7, b"hello frames");
        let frame = decode_frame(&frame_bytes).unwrap();
        assert_eq!(frame.kind, 7);
        assert_eq!(frame.payload, b"hello frames");

        let mut two = frame_bytes.clone();
        two.extend_from_slice(&frame_bytes);
        let (first, consumed) = decode_frame_prefix(&two).unwrap();
        assert_eq!(first.kind, 7);
        assert_eq!(consumed, frame_bytes.len());
        let second = decode_frame(&two[consumed..]).unwrap();
        assert_eq!(second, first);
    }

    #[test]
    fn empty_payload_is_legal() {
        let bytes = encode_frame(3, &[]);
        assert_eq!(bytes.len(), HEADER_BYTES + CHECKSUM_BYTES);
        let frame = decode_frame(&bytes).unwrap();
        assert!(frame.payload.is_empty());
    }

    #[test]
    fn hostile_length_errors_before_allocation() {
        // A 12-byte header claiming a 4 GiB payload must error with
        // Oversized, not attempt the allocation and fail later.
        let mut head = Vec::new();
        head.extend_from_slice(&MAGIC);
        head.extend_from_slice(&PROTO_VERSION.to_le_bytes());
        head.push(1);
        head.push(0);
        head.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            decode_frame_prefix(&head),
            Err(ProtoError::Oversized(u32::MAX as usize))
        );
        let mut cursor = std::io::Cursor::new(head);
        assert_eq!(
            read_raw_frame(&mut cursor),
            Err(ProtoError::Oversized(u32::MAX as usize))
        );
    }

    #[test]
    fn bad_magic_version_flags() {
        let clean = encode_frame(1, b"x");
        let mut bad_magic = clean.clone();
        bad_magic[0] = b'Z';
        assert_eq!(
            decode_frame(&bad_magic),
            Err(ProtoError::BadMagic(*b"ZCLP"))
        );

        let mut bad_version = clean.clone();
        bad_version[4] = 9;
        assert_eq!(decode_frame(&bad_version), Err(ProtoError::BadVersion(9)));

        let mut bad_flags = clean.clone();
        bad_flags[7] = 0x80;
        assert_eq!(decode_frame(&bad_flags), Err(ProtoError::BadFlags(0x80)));
    }

    #[test]
    fn trailing_bytes_rejected_by_exact_decode() {
        let mut bytes = encode_frame(1, b"x");
        bytes.push(0);
        assert_eq!(decode_frame(&bytes), Err(ProtoError::TrailingBytes(1)));
    }

    #[test]
    fn raw_read_skips_checksum_verification() {
        let mut bytes = encode_frame(4, b"damaged in flight");
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff; // corrupt the checksum trailer
        let mut cursor = std::io::Cursor::new(bytes.clone());
        let raw = read_raw_frame(&mut cursor).unwrap();
        assert_eq!(raw, bytes);
        // ...but the verifying decoder refuses the same bytes.
        assert_eq!(decode_frame(&raw), Err(ProtoError::Checksum));
    }
}
