//! Positive fixture: every construct in here must produce a finding when
//! scanned as `fl` library code. The rule tests assert exact (rule, line)
//! pairs — keep line numbers stable when editing.

pub fn bad_rng(seed: u64) {
    let _rng = derive(seed, &[42, 7]); // rng-stream-discipline @6
    let _direct = SmallRng::seed_from_u64(1234); // rng-stream-discipline @7
}

pub fn float_compare(x: f32) -> bool {
    x == 1.5 // float-eq @11
}

pub fn misuse(x: f32) -> bool {
    // fedlint::allow(float-eq)
    x == 2.5 // the pragma above has no reason: pragma-syntax @15, finding stays @16
}

pub fn retired(x: Option<u32>) -> u32 {
    // fedlint::allow(no-panic-paths): clippy's `unwrap_used` checks this now
    x.unwrap() // the pragma above names no rule of fedlint's: pragma-syntax @20
}
