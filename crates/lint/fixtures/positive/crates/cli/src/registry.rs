//! Positive fixture: a guard held across a socket write, taken through the
//! two acquisition forms no other fixture uses — `.read()` on a field
//! declared once as `RwLock` (@22), and the free-fn `lock(&x)` helper,
//! whose argument names the lock (@27) (`guard-across-blocking`).

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
