//! Update-compression codecs behind the [`Transport`](crate::faults::Transport) shim.
//!
//! Every client upload can be passed through an [`CodecSpec`]-selected
//! encoder before it crosses the simulated network: int8/int4 linear
//! quantization with a per-message scale/zero-point, top-k magnitude
//! sparsification with error-feedback residuals, and delta-vs-reference
//! encoding that ships `w_i − w_ref` instead of raw weights. The
//! [`CommMeter`](crate::comm::CommMeter) charges the **encoded wire bytes**
//! (header + payload + checksum exactly as laid out below), not logical
//! f32 counts — the wire-honest accounting contract from the fault layer
//! extended to compression.
//!
//! # Wire layout (on [`fedclust_proto::bytes`])
//!
//! ```text
//! [0]      tag: u8        0 = raw f32, 1 = q8, 2 = q4, 3 = top-k
//! [1]      flags: u8      bit 0: payload is a delta vs the reference
//! [2..6]   n: u32         logical element count
//! [6..10]  p0: u32        q8/q4: scale f32 bits · top-k: k · raw: 0
//! [10..14] p1: u32        q8/q4: zero-point f32 bits · otherwise 0
//! [14..]   payload        q8: n bytes · q4: ⌈n/2⌉ bytes ·
//!                         top-k: k × (u32 index + f32 value) · raw: 4n bytes
//! [-8..]   checksum: u64  FNV-1a over all preceding bytes
//! ```
//!
//! `CodecSpec::none()` is special-cased by the transport: no header, no
//! transform, no RNG draw — byte-identical pass-through with the legacy
//! 4-bytes-per-scalar accounting, pinned the same way `FaultPlan::none()`
//! is.
//!
//! # Determinism
//!
//! The default rounding mode is round-to-nearest, which draws no
//! randomness at all. Stochastic rounding (`q8+sr`, `delta+q4+sr`) draws
//! from the named `streams::CODEC` stream keyed by `(seed, round,
//! client)`, so compressed runs replay bit-identically at any thread
//! count and across kill-and-resume, exactly like every other stochastic
//! component.
//!
//! # Defined behavior on non-finite input
//!
//! Quantizers derive scale/zero-point from the finite elements only and
//! map non-finite elements to code 0 (the zero-point); the encoder and
//! decoder never panic on any input (`tests/hostile_bytes.rs`, including
//! hostile checksum-valid bytes).

use fedclust_proto::bytes::{self, Reader, Writer};
use rand::rngs::SmallRng;
use rand::Rng;

/// Header bytes before the payload: tag, flags, n, p0, p1.
pub const WIRE_HEADER_BYTES: usize = 14;
/// Trailing FNV-1a checksum bytes.
pub const WIRE_CHECKSUM_BYTES: usize = bytes::CHECKSUM_BYTES;
/// Fixed per-message framing overhead for every non-`none` codec.
pub const WIRE_OVERHEAD_BYTES: usize = WIRE_HEADER_BYTES + WIRE_CHECKSUM_BYTES;
/// Hard ceiling on the element count a sparse (top-k) message may claim.
/// Dense payloads bound `n` by their own wire bytes, but a top-k header's
/// `n` is otherwise unconstrained — without this cap a checksum-valid
/// hostile message claiming `n = u32::MAX` with `k = 1` would force a
/// multi-gigabyte zero-fill in the decoder. 2²² elements (16 MiB dense)
/// is far above any model state this workspace trains.
pub const MAX_TOPK_ELEMS: usize = 1 << 22;

const TAG_RAW: u8 = 0;
const TAG_Q8: u8 = 1;
const TAG_Q4: u8 = 2;
const TAG_TOPK: u8 = 3;

const FLAG_DELTA: u8 = 1;

/// Quantization levels: q8 codes span `0..=255`, q4 codes span `0..=15`.
const Q8_LEVELS: u32 = 255;
const Q4_LEVELS: u32 = 15;

/// The base transform applied to the (possibly delta-encoded) payload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BaseCodec {
    /// No value transform; payload ships as raw f32 words.
    Raw,
    /// Int8 linear quantization: 1 byte per element.
    Q8,
    /// Int4 linear quantization: 2 elements per byte.
    Q4,
    /// Top-k magnitude sparsification keeping `ceil(frac · n)` elements,
    /// with error-feedback residuals accumulated in persistent per-client
    /// state. Inherently delta-coded: unsent coordinates revert to the
    /// reference, and the residual carries what was withheld forward.
    TopK(f32),
}

/// A parsed `--codec` selection: delta pre-pass, base transform, rounding.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CodecSpec {
    /// Ship `payload − reference` instead of raw values when the server
    /// and client share a reference state (the broadcast model).
    pub delta: bool,
    /// The base transform.
    pub base: BaseCodec,
    /// Stochastic rounding for q8/q4 (draws from `streams::CODEC`).
    /// Round-to-nearest when false: no randomness, error ≤ scale/2.
    pub stochastic: bool,
}

impl CodecSpec {
    /// The identity codec: legacy pass-through, no header, no transform.
    pub fn none() -> CodecSpec {
        CodecSpec {
            delta: false,
            base: BaseCodec::Raw,
            stochastic: false,
        }
    }

    /// Is this the identity codec (transport fast path)?
    pub fn is_none(&self) -> bool {
        *self == CodecSpec::none()
    }

    /// Does encoding draw from the `streams::CODEC` RNG stream?
    pub fn draws_rng(&self) -> bool {
        self.stochastic && matches!(self.base, BaseCodec::Q8 | BaseCodec::Q4)
    }

    /// Parse a `--codec` spec: `+`-joined tokens from `{none, delta, q8,
    /// q4, topk:<frac>, sr}`. `none` must stand alone; at most one base;
    /// `sr` (stochastic rounding) requires a quantizing base. Examples:
    /// `q8`, `topk:0.1`, `delta+q4`, `delta+q8+sr`.
    pub fn parse(s: &str) -> Result<CodecSpec, String> {
        let trimmed = s.trim();
        if trimmed.is_empty() {
            return Err("empty codec spec; expected e.g. none, q8, q4, topk:0.1, delta+q8".into());
        }
        if trimmed == "none" {
            return Ok(CodecSpec::none());
        }
        let mut delta = false;
        let mut stochastic = false;
        let mut base: Option<BaseCodec> = None;
        let mut set_base = |b: BaseCodec, tok: &str| -> Result<(), String> {
            if base.is_some() {
                return Err(format!(
                    "codec '{}' selects more than one base transform (at '{}')",
                    trimmed, tok
                ));
            }
            base = Some(b);
            Ok(())
        };
        for tok in trimmed.split('+') {
            match tok {
                "delta" if !delta => delta = true,
                "delta" => return Err(format!("duplicate 'delta' in codec '{}'", trimmed)),
                "sr" if !stochastic => stochastic = true,
                "sr" => return Err(format!("duplicate 'sr' in codec '{}'", trimmed)),
                "q8" => set_base(BaseCodec::Q8, tok)?,
                "q4" => set_base(BaseCodec::Q4, tok)?,
                "none" => return Err(format!("'none' must stand alone, got codec '{}'", trimmed)),
                _ => {
                    let Some(frac_str) = tok.strip_prefix("topk:") else {
                        return Err(format!(
                            "unknown codec token '{}' in '{}'; expected delta, q8, q4, \
                             topk:<frac>, or sr",
                            tok, trimmed
                        ));
                    };
                    let frac: f32 = frac_str.parse().map_err(|_| {
                        format!(
                            "invalid top-k fraction '{}' in codec '{}'",
                            frac_str, trimmed
                        )
                    })?;
                    if !(frac.is_finite() && 0.0 < frac && frac <= 1.0) {
                        return Err(format!(
                            "top-k fraction must be in (0, 1], got {} in codec '{}'",
                            frac_str, trimmed
                        ));
                    }
                    set_base(BaseCodec::TopK(frac), tok)?;
                }
            }
        }
        let base = base.unwrap_or(BaseCodec::Raw);
        if stochastic && !matches!(base, BaseCodec::Q8 | BaseCodec::Q4) {
            return Err(format!(
                "'sr' (stochastic rounding) requires a q8 or q4 base, got codec '{}'",
                trimmed
            ));
        }
        let spec = CodecSpec {
            delta,
            base,
            stochastic,
        };
        if spec.is_none() {
            // `delta` alone is meaningful (raw f32 deltas); reaching here
            // with the identity spec means the input was e.g. "+".
            return Err(format!("codec '{}' selects no transform", trimmed));
        }
        Ok(spec)
    }

    /// Exact wire bytes for one encoded message of `n` logical elements.
    /// The identity codec reports the legacy 4-bytes-per-scalar size.
    pub fn wire_len(&self, n: usize) -> usize {
        if self.is_none() {
            return n.saturating_mul(4);
        }
        let payload = match self.base {
            BaseCodec::Raw => n.saturating_mul(4),
            BaseCodec::Q8 => n,
            BaseCodec::Q4 => n.div_ceil(2),
            BaseCodec::TopK(frac) => topk_k(frac, n).saturating_mul(8),
        };
        WIRE_OVERHEAD_BYTES.saturating_add(payload)
    }
}

impl std::fmt::Display for CodecSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_none() {
            return f.write_str("none");
        }
        let mut parts: Vec<String> = Vec::new();
        if self.delta {
            parts.push("delta".into());
        }
        match self.base {
            BaseCodec::Raw => {}
            BaseCodec::Q8 => parts.push("q8".into()),
            BaseCodec::Q4 => parts.push("q4".into()),
            BaseCodec::TopK(frac) => parts.push(format!("topk:{}", frac)),
        }
        if self.stochastic {
            parts.push("sr".into());
        }
        f.write_str(&parts.join("+"))
    }
}

/// Number of coordinates top-k keeps for an `n`-element payload: at least
/// one, at most all, `ceil(frac · n)` in between.
pub fn topk_k(frac: f32, n: usize) -> usize {
    if n == 0 {
        return 0;
    }
    // `frac` arrives as an f32 (CLI-parsed); widening an inexact fraction
    // inflates the product past the intended integer (0.4f32 · 5 widens to
    // 2.0000000298, whose ceiling is 3, not 2). Shave more than the f32
    // representation error (≤ 2⁻²⁴ relative) before taking the ceiling.
    let k = (frac as f64 * n as f64 * (1.0 - 1e-6)).ceil() as usize;
    k.clamp(1, n)
}

/// One encoded upload: the bytes that cross the wire and the values the
/// server reconstructs from them. The decoded side is computed during
/// encoding so the production hot path never runs the fallible decoder;
/// `decode(&wire, …)` is guaranteed (and conformance-tested) to agree.
#[derive(Debug, Clone, PartialEq)]
pub struct Encoded {
    /// Serialized message: header + payload + checksum.
    pub wire: Vec<u8>,
    /// The server-side reconstruction of the payload.
    pub decoded: Vec<f32>,
}

/// Why a hostile or truncated wire message failed to decode.
#[derive(Debug, Clone, PartialEq)]
pub enum CodecError {
    /// Fewer bytes than the fixed framing.
    Truncated,
    /// Unknown codec tag byte.
    BadTag(u8),
    /// FNV-1a checksum mismatch.
    Checksum,
    /// Payload length disagrees with the header's element count.
    LengthMismatch {
        /// Bytes the header implies.
        expected: usize,
        /// Bytes actually present.
        actual: usize,
    },
    /// The delta flag is set but no reference of the right length exists.
    MissingReference,
    /// Top-k indices out of range or not strictly increasing.
    BadIndices,
    /// A sparse header claims more elements than [`MAX_TOPK_ELEMS`].
    ImplausibleCount(usize),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "message shorter than codec framing"),
            CodecError::BadTag(t) => write!(f, "unknown codec tag {}", t),
            CodecError::Checksum => write!(f, "codec checksum mismatch"),
            CodecError::LengthMismatch { expected, actual } => write!(
                f,
                "codec payload length mismatch: header implies {} bytes, got {}",
                expected, actual
            ),
            CodecError::MissingReference => {
                write!(f, "delta-coded message without a matching reference")
            }
            CodecError::BadIndices => write!(f, "top-k indices out of range or unsorted"),
            CodecError::ImplausibleCount(n) => write!(
                f,
                "sparse element count {} exceeds the decoder's plausibility ceiling {}",
                n, MAX_TOPK_ELEMS
            ),
        }
    }
}

impl std::error::Error for CodecError {}

impl From<bytes::Error> for CodecError {
    /// Whatever the byte layer could not read, the message was too short
    /// to hold; a failed seal is the checksum.
    fn from(e: bytes::Error) -> Self {
        match e {
            bytes::Error::Checksum => CodecError::Checksum,
            _ => CodecError::Truncated,
        }
    }
}

/// Dequantize one code against stored f32 parameters. Shared by the
/// encoder (to compute the server-side view) and the decoder, so the two
/// can never drift.
fn dequant_value(code: u32, scale: f32, zero_point: f32) -> f32 {
    (zero_point as f64 + code as f64 * scale as f64) as f32
}

/// Scale and zero-point over the finite elements of `v` for `levels + 1`
/// codes. Degenerate inputs (empty, all non-finite, constant) get scale 0:
/// every code decodes to the zero-point.
fn quant_params(v: &[f32], levels: u32) -> (f32, f32) {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for &x in v {
        if x.is_finite() {
            let x = x as f64;
            if x < lo {
                lo = x;
            }
            if x > hi {
                hi = x;
            }
        }
    }
    if !lo.is_finite() || !hi.is_finite() || hi <= lo {
        let zero_point = if lo.is_finite() { lo as f32 } else { 0.0 };
        return (0.0, zero_point);
    }
    (((hi - lo) / levels as f64) as f32, lo as f32)
}

/// Quantize one element against stored f32 parameters. Non-finite values
/// map to code 0 (the zero-point). Round-to-nearest unless an RNG is
/// supplied, in which case rounding is stochastic with probability equal
/// to the fractional part — unbiased, and drawn deterministically from the
/// caller's named stream.
fn quant_code(
    x: f32,
    levels: u32,
    scale: f32,
    zero_point: f32,
    rng: &mut Option<&mut SmallRng>,
) -> u32 {
    if !x.is_finite() || scale <= 0.0 || scale.is_nan() {
        return 0;
    }
    let t = (x as f64 - zero_point as f64) / scale as f64;
    let rounded = match rng {
        Some(r) => {
            let floor = t.floor();
            let frac = t - floor;
            floor + if r.gen::<f64>() < frac { 1.0 } else { 0.0 }
        }
        None => (t + 0.5).floor(),
    };
    rounded.clamp(0.0, levels as f64) as u32
}

impl CodecSpec {
    /// Encode one upload. `reference` is the state both ends already share
    /// (the broadcast model); `residual` is the client's persistent
    /// error-feedback accumulator (top-k only; resized to the payload
    /// length on shape change, updated on every call regardless of the
    /// upload's eventual fate on the wire); `rng` supplies stochastic
    /// rounding draws when [`CodecSpec::draws_rng`] says so.
    ///
    /// Must not be called for the identity codec — the transport's `none`
    /// fast path bypasses encoding entirely to stay byte-identical with
    /// the legacy uncompressed behavior.
    pub fn encode(
        &self,
        payload: &[f32],
        reference: Option<&[f32]>,
        residual: Option<&mut Vec<f32>>,
        mut rng: Option<&mut SmallRng>,
    ) -> Encoded {
        let n = payload.len();
        let reference = reference.filter(|r| r.len() == n);
        // The value stream the base transform sees, and whether the
        // decoder must add the reference back.
        let deltaed = match self.base {
            // Top-k is inherently delta-coded whenever a reference exists:
            // unsent coordinates must revert to the reference, not zero.
            BaseCodec::TopK(_) => reference.is_some(),
            _ => self.delta && reference.is_some(),
        };
        let values: Vec<f32> = if deltaed {
            match reference {
                Some(r) => payload.iter().zip(r).map(|(p, r)| p - r).collect(),
                None => payload.to_vec(),
            }
        } else {
            payload.to_vec()
        };
        let flags = if deltaed { FLAG_DELTA } else { 0 };

        let mut wire = Writer::with_capacity(self.wire_len(n));
        match self.base {
            BaseCodec::Raw => {
                write_header(&mut wire, TAG_RAW, flags, n as u32, 0, 0);
                wire.f32s(&values);
                let wire = bytes::seal(wire.into_bytes());
                let decoded = reconstruct(&values, flags, reference);
                Encoded { wire, decoded }
            }
            BaseCodec::Q8 => {
                let (scale, zero_point) = quant_params(&values, Q8_LEVELS);
                let codes: Vec<u32> = values
                    .iter()
                    .map(|&x| quant_code(x, Q8_LEVELS, scale, zero_point, &mut rng))
                    .collect();
                write_header(
                    &mut wire,
                    TAG_Q8,
                    flags,
                    n as u32,
                    scale.to_bits(),
                    zero_point.to_bits(),
                );
                for &c in &codes {
                    wire.u8(c as u8);
                }
                let wire = bytes::seal(wire.into_bytes());
                let dequant: Vec<f32> = codes
                    .iter()
                    .map(|&c| dequant_value(c, scale, zero_point))
                    .collect();
                let decoded = reconstruct(&dequant, flags, reference);
                Encoded { wire, decoded }
            }
            BaseCodec::Q4 => {
                let (scale, zero_point) = quant_params(&values, Q4_LEVELS);
                let codes: Vec<u32> = values
                    .iter()
                    .map(|&x| quant_code(x, Q4_LEVELS, scale, zero_point, &mut rng))
                    .collect();
                write_header(
                    &mut wire,
                    TAG_Q4,
                    flags,
                    n as u32,
                    scale.to_bits(),
                    zero_point.to_bits(),
                );
                for pair in codes.chunks(2) {
                    let lo = pair.first().copied().unwrap_or(0) as u8;
                    let hi = pair.get(1).copied().unwrap_or(0) as u8;
                    wire.u8(lo | (hi << 4));
                }
                let wire = bytes::seal(wire.into_bytes());
                let dequant: Vec<f32> = codes
                    .iter()
                    .map(|&c| dequant_value(c, scale, zero_point))
                    .collect();
                let decoded = reconstruct(&dequant, flags, reference);
                Encoded { wire, decoded }
            }
            BaseCodec::TopK(frac) => {
                // Error feedback: sparsify the delta plus everything the
                // previous rounds withheld.
                let mut acc = values;
                if let Some(res) = &residual {
                    if res.len() == n {
                        for (a, r) in acc.iter_mut().zip(res.iter()) {
                            *a += r;
                        }
                    }
                }
                let k = topk_k(frac, n);
                // Deterministic selection: by |value| descending, index
                // ascending on ties; NaNs order via total_cmp.
                let mut order: Vec<u32> = (0..n as u32).collect();
                order.sort_by(|&a, &b| {
                    let ma = acc[a as usize].abs();
                    let mb = acc[b as usize].abs();
                    mb.total_cmp(&ma).then(a.cmp(&b))
                });
                let mut kept: Vec<u32> = order.into_iter().take(k).collect();
                kept.sort_unstable();

                write_header(&mut wire, TAG_TOPK, flags, n as u32, k as u32, 0);
                for &i in &kept {
                    wire.u32(i);
                    wire.f32(acc[i as usize]);
                }
                let wire = bytes::seal(wire.into_bytes());

                // Server-side view: reference (or zero) everywhere, the
                // accumulated value at kept coordinates.
                let mut sparse = vec![0.0f32; n];
                for &i in &kept {
                    sparse[i as usize] = acc[i as usize];
                }
                let decoded = reconstruct(&sparse, flags, reference);

                // The residual keeps exactly what was not sent — updated
                // whether or not the wire message survives the fault plan.
                if let Some(res) = residual {
                    for &i in &kept {
                        acc[i as usize] = 0.0;
                    }
                    *res = acc;
                }
                Encoded { wire, decoded }
            }
        }
    }
}

/// Append the fixed header to an in-progress wire message.
fn write_header(wire: &mut Writer, tag: u8, flags: u8, n: u32, p0: u32, p1: u32) {
    wire.u8(tag);
    wire.u8(flags);
    wire.u32(n);
    wire.u32(p0);
    wire.u32(p1);
}

/// Add the reference back when the payload was delta-coded.
fn reconstruct(values: &[f32], flags: u8, reference: Option<&[f32]>) -> Vec<f32> {
    if flags & FLAG_DELTA != 0 {
        match reference {
            Some(r) => values.iter().zip(r).map(|(v, r)| v + r).collect(),
            None => values.to_vec(),
        }
    } else {
        values.to_vec()
    }
}

/// The client-side encode exactly as the transport performs it: the codec
/// RNG derives from `(seed, streams::CODEC, round, client)`, the caller's
/// error-feedback residual advances in place, and the result carries the
/// wire bytes plus the server-side reconstruction. The in-process
/// [`Transport::uplink`](crate::faults::Transport::uplink) and the remote
/// worker fleet both route through this function, so a networked upload
/// is bit-identical to its simulated twin by construction.
pub fn encode_for_upload(
    spec: CodecSpec,
    seed: u64,
    round: usize,
    client: usize,
    payload: &[f32],
    reference: Option<&[f32]>,
    mut residual: Option<Vec<f32>>,
) -> (Encoded, Option<Vec<f32>>) {
    let mut rng = if spec.draws_rng() {
        Some(fedclust_tensor::rng::derive(
            seed,
            &[
                fedclust_tensor::rng::streams::CODEC,
                round as u64,
                client as u64,
            ],
        ))
    } else {
        None
    };
    let enc = spec.encode(payload, reference, residual.as_mut(), rng.as_mut());
    (enc, residual)
}

/// The fixed header of a verified message.
struct Header {
    tag: u8,
    flags: u8,
    n: usize,
    p0: u32,
    p1: u32,
}

/// Verify the framing and checksum of one wire message and split it into
/// its header and a reader over the payload.
fn decode_open(bytes: &[u8]) -> Result<(Header, Reader<'_>), CodecError> {
    if bytes.len() < WIRE_OVERHEAD_BYTES {
        return Err(CodecError::Truncated);
    }
    let mut r = Reader::new(bytes::unseal(bytes)?);
    let header = Header {
        tag: r.u8()?,
        flags: r.u8()?,
        n: r.u32()? as usize,
        p0: r.u32()?,
        p1: r.u32()?,
    };
    Ok((header, r))
}

/// Decode one wire message against an optional shared reference. Total on
/// arbitrary input: every length is checked, every access bounds-checked,
/// and a checksum-valid but structurally hostile message yields an error,
/// never a panic or an over-allocation.
pub fn decode(bytes: &[u8], reference: Option<&[f32]>) -> Result<Vec<f32>, CodecError> {
    let (h, mut payload) = decode_open(bytes)?;
    let reference = if h.flags & FLAG_DELTA != 0 {
        let r = reference
            .filter(|r| r.len() == h.n)
            .ok_or(CodecError::MissingReference)?;
        Some(r)
    } else {
        None
    };
    let (scale, zero_point) = (f32::from_bits(h.p0), f32::from_bits(h.p1));
    let values = match h.tag {
        TAG_RAW => {
            decode_check_payload(&payload, h.n.checked_mul(4))?;
            payload.f32s(h.n)?
        }
        TAG_Q8 => {
            decode_check_payload(&payload, Some(h.n))?;
            let codes = payload.take(h.n)?.iter();
            codes
                .map(|&c| dequant_value(c as u32, scale, zero_point))
                .collect()
        }
        TAG_Q4 => decode_q4_payload(&mut payload, h.n, scale, zero_point)?,
        TAG_TOPK => {
            let pairs = decode_topk_pairs(&mut payload, h.n, h.p0 as usize)?;
            let mut out = vec![0.0f32; h.n];
            for (i, v) in pairs {
                *out.get_mut(i as usize).ok_or(CodecError::BadIndices)? = v;
            }
            out
        }
        other => return Err(CodecError::BadTag(other)),
    };
    Ok(match reference {
        Some(r) => values.iter().zip(r).map(|(v, r)| v + r).collect(),
        None => values,
    })
}

/// The strictly increasing kept-coordinate indices of a top-k message.
/// Errors on any non-top-k or malformed message.
pub fn decode_kept_indices(bytes: &[u8]) -> Result<Vec<u32>, CodecError> {
    let (h, mut payload) = decode_open(bytes)?;
    if h.tag != TAG_TOPK {
        return Err(CodecError::BadTag(h.tag));
    }
    let pairs = decode_topk_pairs(&mut payload, h.n, h.p0 as usize)?;
    Ok(pairs.iter().map(|&(i, _)| i).collect())
}

/// Check a payload's actual byte length against the header's implication.
fn decode_check_payload(payload: &Reader<'_>, expected: Option<usize>) -> Result<(), CodecError> {
    let expected = expected.ok_or(CodecError::Truncated)?;
    if payload.remaining() != expected {
        return Err(CodecError::LengthMismatch {
            expected,
            actual: payload.remaining(),
        });
    }
    Ok(())
}

/// Q4 payload: exactly ⌈n/2⌉ bytes, low nibble first.
fn decode_q4_payload(
    payload: &mut Reader<'_>,
    n: usize,
    scale: f32,
    zero_point: f32,
) -> Result<Vec<f32>, CodecError> {
    decode_check_payload(payload, n.checked_add(1).map(|m| m / 2))?;
    let mut out = Vec::with_capacity(n);
    for &byte in payload.take(payload.remaining())? {
        out.push(dequant_value((byte & 0x0f) as u32, scale, zero_point));
        if out.len() < n {
            out.push(dequant_value((byte >> 4) as u32, scale, zero_point));
        }
    }
    Ok(out)
}

/// Top-k payload: k (index, value) pairs with strictly increasing
/// in-range indices.
fn decode_topk_pairs(
    payload: &mut Reader<'_>,
    n: usize,
    k: usize,
) -> Result<Vec<(u32, f32)>, CodecError> {
    if n > MAX_TOPK_ELEMS {
        return Err(CodecError::ImplausibleCount(n));
    }
    // The encoder keeps at least one coordinate of any non-empty payload
    // (`topk_k` clamps to `1..=n`), so `k == 0` is only legitimate for
    // `n == 0` — rejecting the mismatch here also closes the hostile
    // `k = 0, huge n` zero-fill.
    if k > n || (k == 0) != (n == 0) {
        return Err(CodecError::BadIndices);
    }
    decode_check_payload(payload, k.checked_mul(8))?;
    let mut pairs = Vec::with_capacity(k);
    let mut prev: Option<u32> = None;
    for _ in 0..k {
        let (i, v) = (payload.u32()?, payload.f32()?);
        if i as usize >= n || prev.is_some_and(|p| i <= p) {
            return Err(CodecError::BadIndices);
        }
        prev = Some(i);
        pairs.push((i, v));
    }
    Ok(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(s: &str) -> CodecSpec {
        CodecSpec::parse(s).expect("spec parses")
    }

    #[test]
    fn parse_accepts_the_documented_grammar() {
        assert!(spec("none").is_none());
        assert_eq!(
            spec("q8"),
            CodecSpec {
                delta: false,
                base: BaseCodec::Q8,
                stochastic: false
            }
        );
        assert_eq!(spec("q4").base, BaseCodec::Q4);
        assert_eq!(spec("topk:0.25").base, BaseCodec::TopK(0.25));
        assert!(spec("delta").delta);
        assert_eq!(spec("delta").base, BaseCodec::Raw);
        let dq8 = spec("delta+q8");
        assert!(dq8.delta);
        assert_eq!(dq8.base, BaseCodec::Q8);
        assert!(spec("delta+q8+sr").stochastic);
        assert!(spec("q4+sr").draws_rng());
        assert!(!spec("q4").draws_rng());
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "",
            " ",
            "zstd",
            "q8+q4",
            "topk:0",
            "topk:1.5",
            "topk:NaN",
            "topk:x",
            "delta+none",
            "none+q8",
            "delta+delta",
            "sr",
            "delta+sr",
            "topk:0.1+sr",
            "sr+sr+q8",
            "+",
        ] {
            assert!(CodecSpec::parse(bad).is_err(), "'{}' should not parse", bad);
        }
    }

    #[test]
    fn display_round_trips_through_parse() {
        for s in [
            "none",
            "q8",
            "q4",
            "topk:0.1",
            "delta",
            "delta+q8",
            "delta+q8+sr",
        ] {
            let spec = spec(s);
            assert_eq!(CodecSpec::parse(&spec.to_string()), Ok(spec), "{}", s);
        }
    }

    #[test]
    fn wire_len_matches_the_layout_arithmetic() {
        assert_eq!(CodecSpec::none().wire_len(10), 40);
        assert_eq!(spec("q8").wire_len(10), WIRE_OVERHEAD_BYTES + 10);
        assert_eq!(spec("q4").wire_len(10), WIRE_OVERHEAD_BYTES + 5);
        assert_eq!(spec("q4").wire_len(11), WIRE_OVERHEAD_BYTES + 6);
        assert_eq!(spec("topk:0.3").wire_len(10), WIRE_OVERHEAD_BYTES + 3 * 8);
        assert_eq!(spec("delta").wire_len(10), WIRE_OVERHEAD_BYTES + 40);
        // k is at least 1 even for tiny fractions, and 0 for empty tensors.
        assert_eq!(spec("topk:0.01").wire_len(10), WIRE_OVERHEAD_BYTES + 8);
        assert_eq!(spec("topk:0.5").wire_len(0), WIRE_OVERHEAD_BYTES);
    }

    #[test]
    fn encoded_wire_length_matches_wire_len_exactly() {
        let payload: Vec<f32> = (0..33).map(|i| (i as f32).sin()).collect();
        let reference = vec![0.25f32; 33];
        for s in ["q8", "q4", "topk:0.1", "delta", "delta+q8", "delta+q4"] {
            let spec = spec(s);
            let enc = spec.encode(&payload, Some(&reference), None, None);
            assert_eq!(enc.wire.len(), spec.wire_len(33), "{}", s);
            assert_eq!(enc.decoded.len(), 33, "{}", s);
        }
    }

    #[test]
    fn decode_agrees_with_the_encoders_own_view() {
        let payload: Vec<f32> = (0..50)
            .map(|i| ((i * 37) % 19) as f32 * 0.3 - 2.0)
            .collect();
        let reference: Vec<f32> = (0..50).map(|i| (i as f32) * 0.01).collect();
        for s in ["q8", "q4", "topk:0.2", "delta", "delta+q8"] {
            let spec = spec(s);
            let mut residual = Vec::new();
            let enc = spec.encode(&payload, Some(&reference), Some(&mut residual), None);
            let dec = decode(&enc.wire, Some(&reference)).expect("decodes");
            assert_eq!(dec, enc.decoded, "{}", s);
        }
    }

    #[test]
    fn quantization_error_is_bounded_by_half_a_step() {
        let payload: Vec<f32> = (0..101).map(|i| (i as f32) * 0.37 - 20.0).collect();
        let lo = payload.iter().cloned().fold(f32::INFINITY, f32::min) as f64;
        let hi = payload.iter().cloned().fold(f32::NEG_INFINITY, f32::max) as f64;
        for (s, levels) in [("q8", 255.0f64), ("q4", 15.0f64)] {
            let enc = spec(s).encode(&payload, None, None, None);
            let step = (hi - lo) / levels;
            for (x, d) in payload.iter().zip(&enc.decoded) {
                assert!(
                    ((*x as f64) - (*d as f64)).abs() <= step / 2.0 + 1e-6,
                    "{}: |{} - {}| > {}",
                    s,
                    x,
                    d,
                    step / 2.0
                );
            }
        }
    }

    #[test]
    fn constant_and_nonfinite_tensors_quantize_to_defined_values() {
        let constant = vec![3.5f32; 8];
        let enc = spec("q8").encode(&constant, None, None, None);
        assert_eq!(enc.decoded, constant, "constant tensor is exact");
        let hostile = vec![f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 1.0, 2.0];
        let enc = spec("q4").encode(&hostile, None, None, None);
        // Non-finite elements land on the zero-point (the finite minimum).
        assert_eq!(enc.decoded[0], 1.0);
        assert_eq!(enc.decoded[1], 1.0);
        assert_eq!(enc.decoded[2], 1.0);
        assert!(enc.decoded.iter().all(|v| v.is_finite()));
        let all_nan = vec![f32::NAN; 3];
        let enc = spec("q8").encode(&all_nan, None, None, None);
        assert_eq!(enc.decoded, vec![0.0; 3], "all-NaN falls back to zero");
    }

    #[test]
    fn topk_keeps_the_largest_magnitudes_and_feeds_back_the_rest() {
        let payload = vec![0.1f32, -5.0, 0.2, 4.0, -0.3];
        let mut residual = Vec::new();
        let enc = spec("topk:0.4").encode(&payload, None, Some(&mut residual), None);
        // k = ceil(0.4 * 5) = 2: coordinates 1 (-5.0) and 3 (4.0) survive.
        assert_eq!(decode_kept_indices(&enc.wire).expect("indices"), vec![1, 3]);
        assert_eq!(enc.decoded, vec![0.0, -5.0, 0.0, 4.0, 0.0]);
        assert_eq!(residual, vec![0.1, 0.0, 0.2, 0.0, -0.3]);

        // Next round: the residual tops up, small coordinates eventually win.
        let enc2 = spec("topk:0.4").encode(&[0.0; 5], None, Some(&mut residual), None);
        assert_eq!(
            decode_kept_indices(&enc2.wire).expect("indices"),
            vec![2, 4],
            "accumulated 0.2 and -0.3 now dominate"
        );
        assert_eq!(residual, vec![0.1, 0.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn topk_unsent_coordinates_revert_to_the_reference() {
        let payload = vec![1.0f32, 2.0, 3.0, 4.0];
        let reference = vec![1.0f32, 1.0, 1.0, 1.0];
        let mut residual = Vec::new();
        let enc = spec("topk:0.25").encode(&payload, Some(&reference), Some(&mut residual), None);
        // Deltas are [0, 1, 2, 3]; only index 3 is kept.
        assert_eq!(enc.decoded, vec![1.0, 1.0, 1.0, 4.0]);
        let dec = decode(&enc.wire, Some(&reference)).expect("decodes");
        assert_eq!(dec, enc.decoded);
    }

    #[test]
    fn residual_resets_on_shape_change() {
        let mut residual = vec![9.0f32; 3];
        let _ = spec("topk:0.5").encode(&[1.0, 2.0, 3.0, 4.0], None, Some(&mut residual), None);
        assert_eq!(residual.len(), 4, "stale shape is discarded, not merged");
    }

    #[test]
    fn stochastic_rounding_is_deterministic_per_stream() {
        use fedclust_tensor::rng::{derive, streams};
        let payload: Vec<f32> = (0..40).map(|i| (i as f32) * 0.123).collect();
        let s = spec("q8+sr");
        let enc_a = s.encode(
            &payload,
            None,
            None,
            Some(&mut derive(7, &[streams::CODEC, 3, 5])),
        );
        let enc_b = s.encode(
            &payload,
            None,
            None,
            Some(&mut derive(7, &[streams::CODEC, 3, 5])),
        );
        assert_eq!(enc_a, enc_b, "same stream, same bytes");
        let enc_c = s.encode(
            &payload,
            None,
            None,
            Some(&mut derive(7, &[streams::CODEC, 3, 6])),
        );
        assert_ne!(enc_a.wire, enc_c.wire, "different client, different draws");
    }

    #[test]
    fn decode_rejects_tampered_and_truncated_messages() {
        let payload = vec![1.0f32, -2.0, 3.0];
        let enc = spec("q8").encode(&payload, None, None, None);
        assert_eq!(decode(&[], None), Err(CodecError::Truncated));
        assert_eq!(decode(&enc.wire[..5], None), Err(CodecError::Truncated));
        let mut flipped = enc.wire.clone();
        flipped[WIRE_HEADER_BYTES] ^= 0xff;
        assert_eq!(decode(&flipped, None), Err(CodecError::Checksum));
        // Checksum-valid but hostile: bad tag.
        let mut hostile = enc.wire[..enc.wire.len() - 8].to_vec();
        hostile[0] = 200;
        assert_eq!(
            decode(&bytes::seal(hostile), None),
            Err(CodecError::BadTag(200))
        );
    }

    /// A checksum-valid top-k message with whatever the header claims.
    fn sealed_topk(n: u32, k: u32, pairs: &[(u32, f32)]) -> Vec<u8> {
        let mut body = Writer::default();
        write_header(&mut body, TAG_TOPK, 0, n, k, 0);
        for &(i, v) in pairs {
            body.u32(i);
            body.f32(v);
        }
        bytes::seal(body.into_bytes())
    }

    #[test]
    fn decode_rejects_hostile_topk_indices() {
        // Out-of-range index.
        let msg = sealed_topk(4, 1, &[(9, 1.0)]);
        assert_eq!(decode(&msg, None), Err(CodecError::BadIndices));
        // And k > n.
        let msg = sealed_topk(2, 3, &[(0, 0.5), (1, 0.5), (2, 0.5)]);
        assert_eq!(decode(&msg, None), Err(CodecError::BadIndices));
    }

    #[test]
    fn decode_rejects_implausible_sparse_counts() {
        // Claims 2^31 elements with one kept pair: must be rejected before
        // any dense allocation.
        let msg = sealed_topk(1 << 31, 1, &[(0, 1.0)]);
        assert_eq!(
            decode(&msg, None),
            Err(CodecError::ImplausibleCount(1 << 31))
        );
        // And the k = 0 with n > 0 variant (empty payload, huge zero-fill).
        let msg = sealed_topk(1 << 20, 0, &[]);
        assert_eq!(decode(&msg, None), Err(CodecError::BadIndices));
    }

    #[test]
    fn delta_decode_requires_the_reference() {
        let payload = vec![1.0f32, 2.0];
        let reference = vec![0.5f32, 0.5];
        let enc = spec("delta+q8").encode(&payload, Some(&reference), None, None);
        assert_eq!(decode(&enc.wire, None), Err(CodecError::MissingReference));
        assert_eq!(
            decode(&enc.wire, Some(&[0.0])),
            Err(CodecError::MissingReference),
            "wrong-length reference is rejected"
        );
        assert!(decode(&enc.wire, Some(&reference)).is_ok());
    }

    #[test]
    fn delta_without_a_reference_degrades_to_identity_coding() {
        let payload = vec![4.0f32, 5.0];
        let enc = spec("delta").encode(&payload, None, None, None);
        assert_eq!(enc.decoded, payload);
        assert_eq!(decode(&enc.wire, None).expect("decodes"), payload);
    }
}
