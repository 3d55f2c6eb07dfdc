//! Seeded `no clocks` violations: wall-clock readings (lines 18 and 23)
//! that would reach replayed state and a seed derivation.

pub struct RunResult {
    pub wall_ms: u64,
    pub acc: f64,
}

pub fn finish() -> RunResult {
    let wall = elapsed_ms();
    RunResult {
        wall_ms: wall,
        acc: 0.0,
    }
}

fn elapsed_ms() -> u64 {
    let now = std::time::Instant::now();
    now.elapsed().as_millis() as u64
}

pub fn reseed() -> u64 {
    let stamp = std::time::Instant::now().elapsed().as_nanos() as u64;
    seed_from_u64(stamp)
}

fn seed_from_u64(seed: u64) -> u64 {
    seed.wrapping_mul(0x9e37)
}
