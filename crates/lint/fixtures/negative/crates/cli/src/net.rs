//! Negative fixture: a clock in `no clocks`' home. A lease deadline decides
//! when the server offers work again, never what a result holds.

use std::time::{Duration, Instant};

pub fn lease_deadline(timeout: Duration) -> Instant {
    Instant::now() + timeout
}

// fedlint-fixture: covers confinement
