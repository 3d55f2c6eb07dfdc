//! Positive fixture: `confinement`'s `no locks` row — outside the row's two
//! homes, each line naming a lock type is a finding: the import (@7), both
//! fields (@10, @11) and the helper's parameter (@14); `MutexGuard` is none.

use std::io::Write;
use std::net::TcpStream;
use std::sync::{Mutex, MutexGuard, RwLock};

pub struct Registry {
    entries: RwLock<Vec<u8>>,
    queue: Mutex<Vec<u8>>,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl Registry {
    pub fn dump(&self, out: &mut TcpStream) {
        let entries = self.entries.read().unwrap_or_else(|e| e.into_inner());
        let _ = out.write_all(&entries);
    }

    pub fn flush_queue(&self, out: &mut TcpStream) {
        let queue = lock(&self.queue);
        let _ = out.write_all(&queue);
    }
}
