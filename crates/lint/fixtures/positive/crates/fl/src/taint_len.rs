//! Seeded `two doors for hostile bytes` violation: bytes read from disk
//! (line 5) outside the two decoders whose arithmetic is held checked.

pub fn load_report(path: &std::path::Path) -> Vec<u8> {
    let raw = std::fs::read(path).unwrap_or_default();
    parse_report(&raw)
}

fn parse_report(payload: &[u8]) -> Vec<u8> {
    let n = header_len(payload);
    let mut out = Vec::with_capacity(n);
    let end = n * 4;
    if let Some(&b) = payload.get(end) {
        out.push(b);
    }
    let tail = payload[end];
    out.push(tail);
    out
}

fn header_len(payload: &[u8]) -> usize {
    payload.first().copied().unwrap_or(0) as usize
}
