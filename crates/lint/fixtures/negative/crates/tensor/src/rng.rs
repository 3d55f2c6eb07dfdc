//! Negative fixture: the one `streams` table, in `one streams table`'s
//! home. Its labels are distinct, so no stream collides.

pub mod streams {
    pub const ROUND: u64 = 1;
    pub const CLIENT: u64 = 2;
    pub const SAMPLING: u64 = 5;
}

// fedlint-fixture: covers confinement, rng-stream-collision
