//! The twin of the positive tree's `registry.rs`: each guard, taken by
//! `.read()` on an `RwLock` field or by the free-fn `lock(&x)` helper, is
//! dropped before the socket write.

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
        let bytes = entries.clone();
        drop(entries);
        let _ = out.write_all(&bytes);
    }

    pub fn flush_queue(&self, out: &mut TcpStream) {
        let queue = lock(&self.queue);
        let bytes = queue.clone();
        drop(queue);
        let _ = out.write_all(&bytes);
    }
}

// fedlint-fixture: covers guard-across-blocking
