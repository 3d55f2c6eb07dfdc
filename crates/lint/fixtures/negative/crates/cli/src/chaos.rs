//! Negative fixture: a lock in one of `no locks`' homes — the chaos proxy's
//! counter table, which its connection threads share — is no finding.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

type Occurrences = Arc<Mutex<BTreeMap<u64, u64>>>;

pub fn occurrence(occ: &Occurrences, key: u64) -> u64 {
    let mut seen = occ.lock().unwrap_or_else(|e| e.into_inner());
    let n = seen.entry(key).or_insert(0);
    *n += 1;
    *n
}

// fedlint-fixture: covers confinement
