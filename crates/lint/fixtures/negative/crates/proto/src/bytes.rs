//! Negative fixture: the byte layer's reader in its blessed shape — a
//! shrinking slice, so there is no offset to do arithmetic on, and checked
//! splits instead of indexing.

pub struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    pub fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let (head, tail) = self.rest.split_at_checked(n)?;
        self.rest = tail;
        Some(head)
    }

    pub fn slab(&mut self, n: usize, width: usize) -> Option<&'a [u8]> {
        self.take(n.saturating_mul(width))
    }
}

pub fn unseal(bytes: &[u8]) -> Option<&[u8]> {
    let mut r = Reader { rest: bytes };
    let body = r.take(bytes.len().saturating_sub(8))?;
    r.take(8).map(|_| body)
}

/// The one FNV-1a: its offset basis may appear here and nowhere else.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

// fedlint-fixture: covers codec-checked-arith, confinement
