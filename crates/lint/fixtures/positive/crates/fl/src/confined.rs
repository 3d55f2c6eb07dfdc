//! Positive fixture: one `confinement` finding per line marked `@N`, for
//! the rows whose scope is every crate. The rule tests assert exact lines —
//! keep line numbers stable when editing.

pub const BASIS: u64 = 0xcbf2_9ce4_8422_2325; // one byte layer @5

pub fn raw(spec: &CodecSpec) -> bool {
    spec.codec.is_none() // one upload rule @8
}

/// Runs outside `#[cfg(test)]` code, so the call below still counts.
pub fn round(transport: &Transport, clients: &[usize]) {
    transport.broadcast(clients); // one door to clients @13
}

#[derive(Serialize)] // no serde @16
pub struct Row;

pub fn lower(batch: &[f32], geom: &Conv2dGeom, cols: &mut [f32]) {
    conv::im2col_batch_into(batch, 1, geom, cols); // bench-only lowering @20
}

pub fn claim(next: &AtomicUsize) -> usize {
    next.fetch_add(1, Ordering::Relaxed) // one relaxed atomic @24
}
