//! Negative fixture: distinct RNG streams per scope. The `streams`
//! constants here must not collide with `clean.rs`'s. Zero findings.

pub mod streams {
    pub const ROUND: u64 = 1;
    pub const CLIENT: u64 = 2;
}

pub fn two_streams(seed: u64, round: u64) {
    let _a = derive(seed, &[streams::ROUND, round]);
    let _b = derive(seed, &[streams::CLIENT, round]);
}

// fedlint-fixture: covers rng-stream-collision
