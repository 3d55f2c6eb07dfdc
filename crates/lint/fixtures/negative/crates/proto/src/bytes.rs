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

// fedlint-fixture: covers codec-checked-arith
