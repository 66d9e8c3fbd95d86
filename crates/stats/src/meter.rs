//! Throughput accounting.

use dqos_sim_core::{Bandwidth, SimTime};

/// Counts bytes (and messages) delivered inside a measurement window and
/// converts them to throughput.
#[derive(Debug, Clone, Default)]
pub struct ThroughputMeter {
    bytes: u64,
    packets: u64,
    messages: u64,
}

impl ThroughputMeter {
    /// An empty meter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one delivered packet of `len` bytes.
    pub fn record_packet(&mut self, len: u32) {
        self.bytes += len as u64;
        self.packets += 1;
    }

    /// Record one fully reassembled message/frame.
    pub fn record_message(&mut self) {
        self.messages += 1;
    }

    /// Delivered bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Delivered packets.
    pub fn packets(&self) -> u64 {
        self.packets
    }

    /// Completed messages.
    pub fn messages(&self) -> u64 {
        self.messages
    }

    /// Mean throughput over the window `[start, end)`.
    pub fn throughput(&self, start: SimTime, end: SimTime) -> Bandwidth {
        let dur = end.since(start);
        if dur.as_ns() == 0 {
            return Bandwidth::bytes_per_sec(0);
        }
        Bandwidth::bytes_per_sec(
            ((self.bytes as u128 * 1_000_000_000u128) / dur.as_ns() as u128) as u64,
        )
    }

    /// Serialise to a JSON tree.
    pub fn to_json(&self) -> crate::json::Json {
        use crate::json::Json;
        Json::obj(vec![
            ("bytes", Json::Int(self.bytes as i128)),
            ("packets", Json::Int(self.packets as i128)),
            ("messages", Json::Int(self.messages as i128)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates() {
        let mut m = ThroughputMeter::new();
        m.record_packet(1000);
        m.record_packet(500);
        m.record_message();
        assert_eq!(m.bytes(), 1500);
        assert_eq!(m.packets(), 2);
        assert_eq!(m.messages(), 1);
    }

    #[test]
    fn throughput_over_window() {
        let mut m = ThroughputMeter::new();
        // 1 MB over 1 ms = 1 GB/s = 8 Gb/s.
        for _ in 0..1000 {
            m.record_packet(1000);
        }
        let bw = m.throughput(SimTime::ZERO, SimTime::from_ms(1));
        assert_eq!(bw.as_bytes_per_sec(), 1_000_000_000);
        assert!((bw.as_gbps_f64() - 8.0).abs() < 1e-9);
    }

    #[test]
    fn zero_window_is_zero_throughput() {
        let mut m = ThroughputMeter::new();
        m.record_packet(100);
        assert_eq!(
            m.throughput(SimTime::from_us(5), SimTime::from_us(5)).as_bytes_per_sec(),
            0
        );
    }
}
