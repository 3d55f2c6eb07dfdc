//! Positive fixture: byte-layer reader violations. Exact lines matter.

pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn take(&mut self, n: usize) -> &'a [u8] {
        let end = self.pos + n; // codec-checked-arith @10 (unchecked `+`)
        let out = &self.buf[self.pos..end]; // codec-checked-arith @11 (bare indexing)
        self.pos = end;
        out
    }
}

pub fn unseal(bytes: &[u8]) -> &[u8] {
    let body_len = bytes.len() - 8; // codec-checked-arith @18 (unchecked `-`)
    &bytes[..body_len] // codec-checked-arith @19 (bare indexing)
}

pub fn sealed_len(body_len: usize) -> usize {
    body_len + 8 // write-side arithmetic: the read-path gate must stay silent
}

impl<'a> Reader<'a> {
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], ()> {
        let rest = &self.buf[self.pos..]; // codec-checked-arith @28 (bare indexing; the header's `[u8; N]` holds a `;`)
        let spare = rest.len() - N; // codec-checked-arith @29 (unchecked `-`)
        let head = rest.get(..N).ok_or(())?;
        self.pos = self.buf.len().saturating_sub(spare);
        head.try_into().map_err(|_| ())
    }
}
