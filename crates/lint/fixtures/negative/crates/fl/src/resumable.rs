//! Negative fixture: distinct RNG streams per scope, each a label of the
//! one `streams` table (`tensor/src/rng.rs`). Zero findings.

pub fn two_streams(seed: u64, round: u64) {
    let _a = derive(seed, &[streams::ROUND, round]);
    let _b = derive(seed, &[streams::CLIENT, round]);
}

// fedlint-fixture: covers rng-stream-collision
