//! Communication-cost accounting.
//!
//! The paper reports communication in megabits-to-target (Table 5) and
//! implicitly through rounds-to-target (Table 4). Every FL method in this
//! reproduction charges its transfers to a [`CommMeter`], counting exactly
//! the scalars each protocol moves: full model states for FedAvg-family
//! methods, k model states per client per round for IFCA, only the global
//! blocks for LG-FedAvg, one-shot partial weights for FedClust, and
//! one-shot subspace bases for PACFL.

/// Bytes per transmitted scalar (f32 on the wire, as in the PyTorch
/// reference implementations).
pub const BYTES_PER_SCALAR: f64 = 4.0;

/// Accumulates the bytes a protocol has moved, split by direction.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CommMeter {
    downlink_bytes: f64,
    uplink_bytes: f64,
}

impl CommMeter {
    /// A fresh meter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuild a meter from raw byte counts (checkpoint restore).
    pub fn from_bytes(downlink_bytes: f64, uplink_bytes: f64) -> Self {
        CommMeter {
            downlink_bytes,
            uplink_bytes,
        }
    }

    /// Raw downlink byte count (checkpoint serialization).
    pub fn downlink_bytes(&self) -> f64 {
        self.downlink_bytes
    }

    /// Raw uplink byte count (checkpoint serialization).
    pub fn uplink_bytes(&self) -> f64 {
        self.uplink_bytes
    }

    /// Charge a server→client transfer of `scalars` f32 values.
    pub fn down(&mut self, scalars: usize) {
        self.downlink_bytes += scalars as f64 * BYTES_PER_SCALAR;
    }

    /// Charge a client→server transfer of `scalars` f32 values.
    pub fn up(&mut self, scalars: usize) {
        self.uplink_bytes += scalars as f64 * BYTES_PER_SCALAR;
    }

    /// Charge a client→server transfer of `bytes` raw wire bytes —
    /// encoded-message accounting for compressed uploads (header +
    /// payload + checksum as serialized, not logical f32 counts).
    pub fn up_wire(&mut self, bytes: usize) {
        self.uplink_bytes += bytes as f64;
    }

    /// Total bytes moved in both directions.
    pub fn total_bytes(&self) -> f64 {
        self.downlink_bytes + self.uplink_bytes
    }

    /// Total megabytes moved (the unit of the paper's Table 5).
    pub fn total_mb(&self) -> f64 {
        self.total_bytes() / 1.0e6
    }

    /// Uplink megabytes.
    pub fn up_mb(&self) -> f64 {
        self.uplink_bytes / 1.0e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_both_directions() {
        let mut m = CommMeter::new();
        m.down(1000);
        m.up(500);
        assert_eq!(m.total_bytes(), 6000.0);
        assert!((m.total_mb() - 0.006).abs() < 1e-12);
        assert!(m.downlink_bytes() > m.uplink_bytes());
    }

    #[test]
    fn zero_meter() {
        let m = CommMeter::new();
        assert_eq!(m.total_bytes(), 0.0);
        assert_eq!(m.total_mb(), 0.0);
    }

    #[test]
    fn wire_charges_count_raw_bytes() {
        let mut m = CommMeter::new();
        m.up_wire(22 + 100);
        assert_eq!(m.uplink_bytes(), 122.0);
        // A 100-element q8 message is strictly cheaper than 100 scalars.
        let mut raw = CommMeter::new();
        raw.up(100);
        assert!(m.uplink_bytes() < raw.uplink_bytes());
    }

    #[test]
    fn accumulates_across_rounds() {
        let mut m = CommMeter::new();
        for _ in 0..10 {
            m.down(100);
            m.up(100);
        }
        assert_eq!(m.total_bytes(), 10.0 * 200.0 * 4.0);
    }
}
