//! Negative fixture: the same fork outside the kernel crates — the map over
//! clients or proximity rows is where the parallelism lives.

use rayon::prelude::*;

pub fn scale_rows(rows: &mut [Vec<f32>], s: f32) {
    rows.par_iter_mut().for_each(|r| r.iter_mut().for_each(|x| *x *= s));
}

// fedlint-fixture: covers confinement
