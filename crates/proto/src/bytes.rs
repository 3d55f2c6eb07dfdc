//! The byte layer under every on-disk and on-wire format in the workspace:
//! checkpoint images (`fedclust_fl::checkpoint`), codec wire messages
//! (`fedclust_fl::codec`) and `FCLP` frames ([`crate::wire`], [`crate::msg`]).
//!
//! * **Little-endian, bit-exact.** `f32`/`f64` travel as their IEEE bit
//!   patterns, so NaN payloads, signed zeros and subnormals survive.
//! * **Total reads.** [`Reader`] never indexes and does no offset
//!   arithmetic: a read hands out a prefix of the bytes that are actually
//!   left or returns a typed [`Error`]. No input can make it panic.
//! * **Check before allocating.** The bulk reads verify `count × width`
//!   against the bytes left before reserving anything, so a lying length
//!   prefix costs an error, not memory.
//! * **One checksum.** [`fnv64`] is the workspace's only FNV-1a-64;
//!   [`seal`]/[`unseal`] carry it as a trailer.
//!
//! Magic, version, prefix width, per-field caps and where the checksum sits
//! stay each format's own policy (DESIGN.md, "Byte layer").

/// Size of the checksum [`seal`] appends and [`unseal`] strips.
pub const CHECKSUM_BYTES: usize = 8;

/// Why a read failed. Each format maps this into its own error type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Error {
    /// A read wanted `need` bytes but only `have` were left.
    Truncated {
        /// Bytes the read needed (saturated when `count × width` overflows).
        need: usize,
        /// Bytes that were left.
        have: usize,
    },
    /// [`unseal`]: the trailing checksum does not match the body.
    Checksum,
    /// [`Reader::finish`]: this many bytes were left unread.
    Trailing(usize),
    /// [`Reader::str`]: the bytes are not UTF-8.
    Utf8,
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Truncated { need, have } => {
                write!(f, "input ends early (need {need} bytes, have {have})")
            }
            Error::Checksum => write!(f, "checksum mismatch"),
            Error::Trailing(n) => write!(f, "{n} trailing bytes"),
            Error::Utf8 => write!(f, "string is not UTF-8"),
        }
    }
}

impl std::error::Error for Error {}

/// FNV-1a 64-bit checksum.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Append the [`fnv64`] of `body` to it.
pub fn seal(mut body: Vec<u8>) -> Vec<u8> {
    let sum = fnv64(&body);
    body.extend_from_slice(&sum.to_le_bytes());
    body
}

/// Verify and strip the trailing checksum [`seal`] appended.
pub fn unseal(bytes: &[u8]) -> Result<&[u8], Error> {
    let mut r = Reader::new(bytes);
    let body = r.take(bytes.len().saturating_sub(CHECKSUM_BYTES))?;
    if r.u64()? != fnv64(body) {
        return Err(Error::Checksum);
    }
    Ok(body)
}

/// Little-endian encoder over a growing buffer.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer with room for `n` bytes.
    pub fn with_capacity(n: usize) -> Self {
        Writer {
            buf: Vec::with_capacity(n),
        }
    }
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    pub fn u16(&mut self, v: u16) {
        self.bytes(&v.to_le_bytes());
    }
    pub fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
    pub fn f32(&mut self, v: f32) {
        self.u32(v.to_bits());
    }
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    /// Raw bytes, no prefix.
    pub fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }
    /// Raw `f32` bit patterns, no prefix.
    pub fn f32s(&mut self, v: &[f32]) {
        self.buf.reserve(v.len().saturating_mul(4));
        for &x in v {
            self.f32(x);
        }
    }
    /// The bytes written so far.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Little-endian decoder over the bytes that are left.
#[derive(Debug)]
pub struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { rest: bytes }
    }
    /// Bytes not yet read.
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }
    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], Error> {
        match self.rest.split_at_checked(n) {
            Some((head, tail)) => {
                self.rest = tail;
                Ok(head)
            }
            None => Err(Error::Truncated {
                need: n,
                have: self.rest.len(),
            }),
        }
    }
    /// The next `N` bytes as an array (magics, fixed-width fields).
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], Error> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }
    pub fn u8(&mut self) -> Result<u8, Error> {
        Ok(u8::from_le_bytes(self.array()?))
    }
    pub fn u16(&mut self) -> Result<u16, Error> {
        Ok(u16::from_le_bytes(self.array()?))
    }
    pub fn u32(&mut self) -> Result<u32, Error> {
        Ok(u32::from_le_bytes(self.array()?))
    }
    pub fn u64(&mut self) -> Result<u64, Error> {
        Ok(u64::from_le_bytes(self.array()?))
    }
    pub fn f32(&mut self) -> Result<f32, Error> {
        Ok(f32::from_bits(self.u32()?))
    }
    pub fn f64(&mut self) -> Result<f64, Error> {
        Ok(f64::from_bits(self.u64()?))
    }
    /// `n` elements of `width` bytes each, checked against what is left
    /// before anything is allocated for them.
    fn slab(&mut self, n: usize, width: usize) -> Result<&'a [u8], Error> {
        self.take(n.saturating_mul(width))
    }
    /// `n` raw `f32` bit patterns.
    pub fn f32s(&mut self, n: usize) -> Result<Vec<f32>, Error> {
        let words = self.slab(n, 4)?.chunks_exact(4);
        Ok(words
            .map(|c| f32::from_bits(u32::from_le_bytes(c.try_into().unwrap_or_default())))
            .collect())
    }
    /// `n` raw `u64`s.
    pub fn u64s(&mut self, n: usize) -> Result<Vec<u64>, Error> {
        let words = self.slab(n, 8)?.chunks_exact(8);
        Ok(words
            .map(|c| u64::from_le_bytes(c.try_into().unwrap_or_default()))
            .collect())
    }
    /// `n` bytes of UTF-8.
    pub fn str(&mut self, n: usize) -> Result<String, Error> {
        String::from_utf8(self.take(n)?.to_vec()).map_err(|_| Error::Utf8)
    }
    /// Every decoder must consume its input exactly; leftovers mean a
    /// writer speaking a different (perhaps future) layout.
    pub fn finish(self) -> Result<(), Error> {
        match self.rest.len() {
            0 => Ok(()),
            n => Err(Error::Trailing(n)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv64_matches_reference_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn every_primitive_round_trips_bit_exact() {
        let nan = f32::from_bits(0x7fc0_beef);
        let mut w = Writer::default();
        w.u8(0xab);
        w.u16(0xbeef);
        w.u32(0xdead_beef);
        w.u64(u64::MAX - 1);
        w.f32(nan);
        w.f64(-0.0);
        w.bytes(b"h\xc3\xa9");
        let floats = [
            1.5,
            f32::MIN_POSITIVE,
            nan,
            f32::INFINITY,
            f32::NEG_INFINITY,
            -0.0,
        ];
        w.f32s(&floats);
        w.u64(7);
        let bytes = w.into_bytes();
        // Little-endian on the wire, whatever the host.
        assert_eq!(bytes[1..3], [0xef, 0xbe]);

        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8(), Ok(0xab));
        assert_eq!(r.u16(), Ok(0xbeef));
        assert_eq!(r.u32(), Ok(0xdead_beef));
        assert_eq!(r.u64(), Ok(u64::MAX - 1));
        assert_eq!(r.f32().map(f32::to_bits), Ok(nan.to_bits()));
        assert_eq!(r.f64().map(f64::to_bits), Ok((-0.0f64).to_bits()));
        assert_eq!(r.str(3).as_deref(), Ok("hé"));
        let back: Vec<u32> = r.f32s(6).unwrap().into_iter().map(f32::to_bits).collect();
        assert_eq!(back, floats.map(f32::to_bits));
        assert_eq!(r.remaining(), 8);
        assert_eq!(r.u64s(1), Ok(vec![7]));
        assert_eq!(r.finish(), Ok(()));
    }

    #[test]
    fn short_reads_are_typed_and_consume_nothing() {
        let mut r = Reader::new(&[1, 2, 3]);
        assert_eq!(r.u32(), Err(Error::Truncated { need: 4, have: 3 }));
        assert_eq!(r.f32s(1), Err(Error::Truncated { need: 4, have: 3 }));
        assert_eq!(r.remaining(), 3, "a failed read leaves the cursor alone");
        // `count × width` that overflows usize is just a very short input.
        let need = usize::MAX;
        assert_eq!(r.u64s(need), Err(Error::Truncated { need, have: 3 }));
        assert_eq!(r.f32s(need / 2), Err(Error::Truncated { need, have: 3 }));
        assert_eq!(r.str(2).as_deref(), Ok("\u{1}\u{2}"));
        assert_eq!(r.finish(), Err(Error::Trailing(1)));
        assert_eq!(Reader::new(&[0xff, 0xfe]).str(2), Err(Error::Utf8));
    }

    #[test]
    fn seal_and_unseal_agree_and_detect_damage() {
        let sealed = seal(b"body".to_vec());
        assert_eq!(sealed.len(), 4 + CHECKSUM_BYTES);
        assert_eq!(unseal(&sealed), Ok(&b"body"[..]));
        assert_eq!(unseal(&seal(Vec::new())), Ok(&[][..]));
        let short = Error::Truncated { need: 8, have: 7 };
        assert_eq!(unseal(&sealed[..7]), Err(short));
        for bit in 0..sealed.len() * 8 {
            let mut dirty = sealed.clone();
            dirty[bit / 8] ^= 1 << (bit % 8);
            assert_eq!(unseal(&dirty), Err(Error::Checksum), "bit {bit}");
        }
    }
}
