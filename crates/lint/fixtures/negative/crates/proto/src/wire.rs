//! Negative fixture: a read in the frame door of `two doors for hostile
//! bytes` is at home, and its decode path keeps every length checked.

use std::io::Read;

pub fn read_frame(r: &mut impl Read) -> std::io::Result<Vec<u8>> {
    let mut head = [0u8; 4];
    r.read_exact(&mut head)?;
    let len = u32::from_le_bytes(head) as usize;
    let mut body = vec![0u8; len.min(1 << 20)];
    r.read_exact(&mut body)?;
    Ok(body)
}

// fedlint-fixture: covers codec-checked-arith, confinement
