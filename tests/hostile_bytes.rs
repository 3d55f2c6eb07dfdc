//! One hostile-input battery for every byte format in the workspace,
//! instantiated three times: checkpoint images, codec wire messages and
//! `FCLP` frames. For each format, starting from the golden images in
//! `tests/golden/` (one per variant the format has):
//!
//! * every truncation and every single-bit flip of a valid image is a
//!   typed error;
//! * a length prefix overwritten — at *every* offset, so no real prefix is
//!   missed — with `MAX` or one more than the bytes behind it can hold,
//!   under a recomputed checksum, is a typed error or a canonical value;
//! * random edits and arbitrary bodies, with and without a recomputed
//!   checksum, likewise;
//!
//! and no decode, failed or not, allocates more than the format's stated
//! constant × the input length (plus its stated slack). That last part is
//! measured, not argued: the test binary counts every byte its allocator
//! hands to the decoding thread.

use fedclust_repro::fl::{checkpoint, codec, Checkpoint, CheckpointError};
use fedclust_repro::proto::bytes::{self, Reader};
use fedclust_repro::proto::{decode_frame, encode_frame, read_msg, Msg, ProtoError};
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local!(static ALLOCATED: Cell<usize> = const { Cell::new(0) });

struct CountingAlloc;

// SAFETY: every request goes to `System` unchanged, so its guarantees are
// this allocator's. The only addition is a bump of a const-initialised,
// destructor-free thread-local, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATED.try_with(|a| a.set(a.get().saturating_add(layout.size())));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// One byte format under test.
trait Format {
    type Value;
    type Error: std::error::Error;
    /// File-name prefix of this format's images under `tests/golden/`.
    const GOLDEN: &'static str;
    /// Width of the format's length prefixes.
    const PREFIX_BYTES: usize;
    /// Bytes after the payload that a length prefix cannot count.
    const TRAILER_BYTES: usize;
    /// A decode of `len` input bytes may allocate at most
    /// `HEAP_FACTOR × len + HEAP_SLACK` bytes in total.
    const HEAP_FACTOR: usize;
    const HEAP_SLACK: usize;

    fn decode(image: &[u8]) -> Result<Self::Value, Self::Error>;
    /// The value's encoding, for formats where decoding is injective: a
    /// successful decode of hostile bytes must map back onto those bytes.
    fn reencode(_: &Self::Value) -> Option<Vec<u8>> {
        None
    }
    /// A checksum-valid image around an arbitrary body.
    fn sealed(body: &[u8]) -> Vec<u8>;
    /// Recompute the checksum over an edited image, keeping the edit.
    fn reseal(image: &[u8]) -> Vec<u8> {
        let body = image.len().saturating_sub(bytes::CHECKSUM_BYTES);
        bytes::seal(image[..body].to_vec())
    }
}

/// Checkpoint images. Heap: a count is accepted while each element could
/// still occupy one byte, and the widest element (`(usize, Vec<f32>)`,
/// `Option<Vec<f32>>`) is 32 bytes of `Vec` header.
struct Ckpt;
impl Format for Ckpt {
    type Value = Checkpoint;
    type Error = CheckpointError;
    const GOLDEN: &'static str = "ckpt_";
    const PREFIX_BYTES: usize = 8;
    const TRAILER_BYTES: usize = 0;
    const HEAP_FACTOR: usize = 34;
    const HEAP_SLACK: usize = 512;
    fn decode(image: &[u8]) -> Result<Checkpoint, CheckpointError> {
        Checkpoint::decode(image)
    }
    fn reencode(cp: &Checkpoint) -> Option<Vec<u8>> {
        Some(cp.encode())
    }
    fn sealed(payload: &[u8]) -> Vec<u8> {
        let mut image = checkpoint::MAGIC.to_vec();
        image.extend_from_slice(&checkpoint::FORMAT_VERSION.to_le_bytes());
        image.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        image.extend_from_slice(&bytes::fnv64(payload).to_le_bytes());
        image.extend_from_slice(payload);
        image
    }
    fn reseal(image: &[u8]) -> Vec<u8> {
        Self::sealed(image.get(28..).unwrap_or_default())
    }
}

/// Codec wire messages, decoded the three ways callers do. Heap: q4 turns
/// a byte into two `f32`s (8×), once with and once without the reference,
/// plus the kept-index pairs; top-k alone may zero-fill up to its cap in
/// each of the two dense decodes.
struct CodecWire;
impl CodecWire {
    fn reference() -> Vec<f32> {
        (0..11).map(|i| i as f32 * 0.125).collect()
    }
}
impl Format for CodecWire {
    type Value = Vec<f32>;
    type Error = codec::CodecError;
    const GOLDEN: &'static str = "codec_";
    const PREFIX_BYTES: usize = 4;
    const TRAILER_BYTES: usize = bytes::CHECKSUM_BYTES;
    const HEAP_FACTOR: usize = 20;
    const HEAP_SLACK: usize = 512 + 2 * 4 * codec::MAX_TOPK_ELEMS;
    fn decode(image: &[u8]) -> Result<Vec<f32>, codec::CodecError> {
        let _ = codec::decode_kept_indices(image);
        let _ = codec::decode(image, None);
        let values = codec::decode(image, Some(&Self::reference()))?;
        let mut header = Reader::new(image);
        let n = header.take(2).and_then(|_| header.u32());
        assert_eq!(Ok(values.len() as u32), n, "length differs from header");
        Ok(values)
    }
    fn sealed(body: &[u8]) -> Vec<u8> {
        bytes::seal(body.to_vec())
    }
}

/// `FCLP` frames down to the typed message. Heap: one copy of the payload
/// for the frame, one for the message's fields, `String`/`Vec` headers for
/// an argv of empty strings (24 bytes per 4-byte prefix, grown by doubling).
struct Frames;
impl Format for Frames {
    type Value = Msg;
    type Error = ProtoError;
    const GOLDEN: &'static str = "frame_";
    const PREFIX_BYTES: usize = 4;
    const TRAILER_BYTES: usize = bytes::CHECKSUM_BYTES;
    const HEAP_FACTOR: usize = 16;
    const HEAP_SLACK: usize = 512;
    fn decode(image: &[u8]) -> Result<Msg, ProtoError> {
        Msg::decode_frame(&decode_frame(image)?)
    }
    fn reencode(msg: &Msg) -> Option<Vec<u8>> {
        Some(msg.encode())
    }
    fn sealed(body: &[u8]) -> Vec<u8> {
        let (kind, payload) = body.split_first().unwrap_or((&0, &[][..]));
        encode_frame(*kind, payload)
    }
}

fn samples<F: Format>() -> Vec<Vec<u8>> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .expect("tests/golden exists")
        .map(|entry| entry.expect("readable entry").path())
        .filter(|p| {
            p.file_name()
                .is_some_and(|n| n.to_string_lossy().starts_with(F::GOLDEN))
        })
        .collect();
    paths.sort();
    assert!(
        !paths.is_empty(),
        "no {}*.bin under tests/golden",
        F::GOLDEN
    );
    paths
        .iter()
        .map(|p| std::fs::read(p).expect("readable golden image"))
        .collect()
}

/// Decode under the allocation meter and hold the format to its bound.
fn decode_bounded<F: Format>(image: &[u8]) -> Result<F::Value, F::Error> {
    let before = ALLOCATED.with(Cell::get);
    let outcome = F::decode(image);
    let allocated = ALLOCATED.with(Cell::get) - before;
    let bound = F::HEAP_FACTOR * image.len() + F::HEAP_SLACK;
    assert!(
        allocated <= bound,
        "decoding {} bytes allocated {} (bound {})",
        image.len(),
        allocated,
        bound
    );
    outcome
}

/// Hostile bytes may decode — but only to the value they canonically encode.
fn check_hostile<F: Format>(image: &[u8]) {
    if let Some(again) = decode_bounded::<F>(image)
        .ok()
        .and_then(|v| F::reencode(&v))
    {
        assert_eq!(again, image, "two byte strings decode to one value");
    }
}

fn truncations_and_bit_flips<F: Format>() {
    for image in samples::<F>() {
        let value = decode_bounded::<F>(&image).expect("golden image decodes");
        assert!(F::reencode(&value).is_none_or(|again| again == image));
        for cut in 0..image.len() {
            let cut_off = decode_bounded::<F>(&image[..cut]);
            assert!(cut_off.is_err(), "truncation to {} bytes decoded", cut);
        }
        for bit in 0..image.len() * 8 {
            let mut dirty = image.clone();
            dirty[bit / 8] ^= 1 << (bit % 8);
            assert!(
                decode_bounded::<F>(&dirty).is_err(),
                "bit {} flip decoded",
                bit
            );
        }
    }
}

fn lying_length_prefixes<F: Format>() {
    for image in samples::<F>() {
        for at in 0..=image.len().saturating_sub(F::PREFIX_BYTES) {
            let end = at + F::PREFIX_BYTES;
            let behind = (image.len() - end).saturating_sub(F::TRAILER_BYTES) as u64;
            // All ones (u32::MAX or u64::MAX), and one element more than
            // fits for elements of 1, 4 and 8 bytes.
            for lie in [u64::MAX, behind + 1, behind / 4 + 1, behind / 8 + 1] {
                let mut hostile = image.clone();
                hostile[at..end].copy_from_slice(&lie.to_le_bytes()[..F::PREFIX_BYTES]);
                check_hostile::<F>(&F::reseal(&hostile));
            }
        }
    }
}

fn garbage<F: Format>(pick: usize, edits: &[(usize, u8)], body: &[u8]) {
    let images = samples::<F>();
    let mut edited = images[pick % images.len()].clone();
    for &(at, byte) in edits {
        let at = at % edited.len();
        edited[at] = byte;
    }
    check_hostile::<F>(&edited);
    check_hostile::<F>(&F::reseal(&edited));
    check_hostile::<F>(body);
    check_hostile::<F>(&F::sealed(body));
}

macro_rules! battery {
    ($name:ident, $format:ty) => {
        mod $name {
            use super::*;

            #[test]
            fn every_truncation_and_bit_flip_is_a_typed_error() {
                truncations_and_bit_flips::<$format>();
            }

            #[test]
            fn lying_length_prefixes_error_or_stay_bounded() {
                lying_length_prefixes::<$format>();
            }

            proptest! {
                #![proptest_config(ProptestConfig::with_cases(256))]

                #[test]
                fn garbage_errors_or_stays_bounded_and_canonical(
                    pick in 0usize..64,
                    edits in proptest::collection::vec((0usize..4096, 0u8..=u8::MAX), 1..6),
                    body in proptest::collection::vec(0u8..=u8::MAX, 0..512),
                ) {
                    garbage::<$format>(pick, &edits, &body);
                }
            }
        }
    };
}

battery!(checkpoint_images, Ckpt);
battery!(codec_messages, CodecWire);
battery!(frames, Frames);

/// The stream reader shares the slice decoder's header checks: on every
/// golden frame and every truncation of it the two agree, the stream
/// reporting the missing bytes as a typed I/O error.
#[test]
fn frame_stream_reader_agrees_with_the_slice_decoder() {
    for image in samples::<Frames>() {
        let msg = Frames::decode(&image).expect("golden frame decodes");
        assert_eq!(read_msg(&mut std::io::Cursor::new(&image)), Ok(msg));
        for cut in 0..image.len() {
            assert_eq!(
                read_msg(&mut std::io::Cursor::new(&image[..cut])),
                Err(ProtoError::Io(std::io::ErrorKind::UnexpectedEof))
            );
        }
    }
}

/// Kind 7 was `Busy` until protocol version 2 and is unassigned now: a
/// checksum-valid frame of it is an unknown kind, whatever it carries.
#[test]
fn the_retired_busy_kind_is_unknown() {
    for payload in [&[][..], &120u32.to_le_bytes()[..]] {
        assert_eq!(
            Frames::decode(&encode_frame(7, payload)),
            Err(ProtoError::BadKind(7))
        );
    }
}

/// `Wait` carries nothing since protocol version 2: the millis it used to
/// carry, or a single byte, are trailing bytes, not a second encoding.
#[test]
fn a_wait_with_a_payload_is_rejected() {
    let wait = Msg::Wait.encode();
    let kind = decode_frame(&wait).expect("own frame decodes").kind;
    assert_eq!(Frames::decode(&wait), Ok(Msg::Wait));
    assert_eq!(
        Frames::decode(&encode_frame(kind, &[0])),
        Err(ProtoError::TrailingBytes(1))
    );
    assert_eq!(
        Frames::decode(&encode_frame(kind, &50u32.to_le_bytes())),
        Err(ProtoError::TrailingBytes(4))
    );
}
