//! Positive fixture: a test tree file with its own FNV-1a instead of
//! `bytes::seal` (`confinement`, one byte layer @5).

fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x100000001b3);
    }
    h
}
