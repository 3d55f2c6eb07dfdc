//! Positive fixture: RNG stream collisions — a duplicated constant value
//! and a re-consumed stream slice in one scope.

pub mod streams { // confinement @4 (a `streams` table outside `tensor/src/rng.rs`)
    pub const ALPHA: u64 = 3;
    pub const BETA: u64 = 3; // rng-stream-collision @6 (value collides with ALPHA)
}

pub fn double_consume(seed: u64, round: u64) {
    let _a = derive(seed, &[streams::ALPHA, round]);
    let _b = derive(seed, &[streams::ALPHA, round]); // rng-stream-collision @11 (same slice, same scope)
}
