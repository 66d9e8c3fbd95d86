//! Structured simulation errors.
//!
//! The seed's run loop asserted its invariants with `assert!`/`expect`,
//! which is the right behaviour for fault-free tier-1 runs (an invariant
//! break there is a simulator bug and must abort loudly) but wrong for
//! fault-injected runs, where "the fabric wedged" is an *outcome* the
//! caller wants to observe. [`crate::Network::try_run`] returns
//! [`SimError`]; [`crate::Network::run`] keeps the panicking contract by
//! unwrapping it.

use crate::flows::AdmissionDiag;
use dqos_core::TrafficClass;
use dqos_switch::PortDiag;
use dqos_sim_core::SimTime;
use dqos_topology::{Port, SwitchId};
use std::fmt;

/// One violated end-of-run invariant (see the paper's appendix: the
/// fabric is lossless, FIFO-composable, and drains completely).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Violation {
    /// Injected packets do not equal delivered + dropped + corrupted.
    Conservation {
        /// Packets put on the wire.
        injected: u64,
        /// Packets handed to sinks intact.
        delivered: u64,
        /// Packets dropped at failed/lossy links.
        dropped: u64,
        /// Packets discarded at the destination as corrupted.
        corrupted: u64,
    },
    /// A sink observed out-of-order delivery within a flow.
    OutOfOrder {
        /// Number of (msg_id, part) regressions observed.
        count: u64,
    },
    /// Messages were abandoned half-assembled although no packet was
    /// lost — in a lossless run this means reordering or duplication.
    BrokenMessages {
        /// Number of abandoned reassemblies.
        count: u64,
    },
    /// Packets were still buffered somewhere when the run finished.
    Residual {
        /// Packets left in NICs, switches or the arena.
        count: u64,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::Conservation { injected, delivered, dropped, corrupted } => write!(
                f,
                "packet conservation broken: {injected} injected != {delivered} delivered + {dropped} dropped + {corrupted} corrupted"
            ),
            Violation::OutOfOrder { count } => {
                write!(f, "{count} out-of-order deliveries (appendix: must be 0)")
            }
            Violation::BrokenMessages { count } => {
                write!(f, "{count} messages abandoned half-assembled with no packet loss")
            }
            Violation::Residual { count } => {
                write!(f, "{count} packets still buffered at end of run")
            }
        }
    }
}

/// Where packets and credits were when the watchdog declared the run
/// stuck. Printed by the [`SimError`] `Display` impl so a wedged run is
/// diagnosable from its error message alone.
#[derive(Debug, Clone)]
pub struct StallSnapshot {
    /// Simulated time at which progress stopped.
    pub now: SimTime,
    /// Events processed before the stall.
    pub events: u64,
    /// Packets alive in the arena (in flight between nodes).
    pub arena_live: usize,
    /// Packets queued across all NICs.
    pub nic_queued: usize,
    /// Packets buffered across all switches.
    pub switch_queued: usize,
    /// Flow-control credits destroyed by fault injection (the usual
    /// culprit for a credit deadlock).
    pub credits_lost: u64,
    /// Per-switch (port, VC) pairs that hold packets or have run out of
    /// credit: `(switch, diag)`.
    pub stuck_ports: Vec<(SwitchId, PortDiag)>,
    /// Per-host NIC occupancy and VC0/VC1 credit for hosts with queued
    /// packets: `(host, queued, [credits_vc0, credits_vc1])`.
    pub stuck_hosts: Vec<(u32, usize, [u32; 2])>,
    /// The admission ledger at the stall: per-class admitted bandwidth
    /// and outstanding reservation count. A stall under heavy admitted
    /// load reads very differently from one on an idle fabric.
    pub admission: AdmissionDiag,
}

impl fmt::Display for StallSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "stalled at {} after {} events: {} packets in flight, {} in NICs, {} in switches, {} credits lost",
            self.now, self.events, self.arena_live, self.nic_queued, self.switch_queued, self.credits_lost
        )?;
        for (sw, d) in &self.stuck_ports {
            writeln!(
                f,
                "  {:?} port {:>2} vc{}: in_q {:>4} out_q {:>4} credits {:>6}",
                sw,
                d.port.idx(),
                d.vc,
                d.input_queued,
                d.output_queued,
                d.credits
            )?;
        }
        for (host, queued, credits) in &self.stuck_hosts {
            writeln!(
                f,
                "  host {host:>3}: queued {queued:>4} credits vc0 {:>6} vc1 {:>6}",
                credits[0], credits[1]
            )?;
        }
        write!(f, "  admission: {} reservations outstanding", self.admission.outstanding)?;
        for class in TrafficClass::ALL {
            let bw = self.admission.admitted_bw[class.idx()];
            if bw != 0 {
                write!(f, ", {} {:.3} MB/s", class.name(), bw as f64 / 1e6)?;
            }
        }
        if self.admission.fallbacks != 0 {
            write!(f, ", {} fallbacks", self.admission.fallbacks)?;
        }
        writeln!(f)
    }
}

/// Why a simulation run failed.
#[derive(Debug, Clone)]
pub enum SimError {
    /// End-of-run invariant violations (all of them, not just the first).
    Violations(Vec<Violation>),
    /// The watchdog fired: the event queue drained (or stopped advancing)
    /// with packets still buffered — typically a credit deadlock induced
    /// by fault injection.
    Stall(Box<StallSnapshot>),
    /// A credit was addressed to a port with no upstream wire — a wiring
    /// bug, promoted from a `debug_assert` so release builds catch it.
    UnwiredFeeder {
        /// The switch that tried to return the credit.
        switch: SwitchId,
        /// The input port with no upstream.
        port: Port,
    },
    /// A switch tried to transmit on a port with no downstream wire.
    UnwiredPort {
        /// The transmitting switch.
        switch: SwitchId,
        /// The output port with no downstream.
        port: Port,
    },
    /// The run configuration cannot execute — e.g.
    /// [`crate::SimConfig::workers`] other than 1.
    Config {
        /// Human-readable description of the rejected configuration.
        detail: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Violations(vs) => {
                write!(f, "{} invariant violation(s):", vs.len())?;
                for v in vs {
                    write!(f, "\n  {v}")?;
                }
                Ok(())
            }
            SimError::Stall(snap) => write!(f, "simulation stalled\n{snap}"),
            SimError::UnwiredFeeder { switch, port } => {
                write!(f, "credit for {switch:?} input port {} has no upstream wire", port.idx())
            }
            SimError::UnwiredPort { switch, port } => {
                write!(f, "{switch:?} transmits on unwired output port {}", port.idx())
            }
            SimError::Config { detail } => {
                write!(f, "configuration cannot execute: {detail}")
            }
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn violations_display_lists_each_one() {
        let e = SimError::Violations(vec![
            Violation::Conservation { injected: 10, delivered: 8, dropped: 1, corrupted: 0 },
            Violation::Residual { count: 1 },
        ]);
        let s = e.to_string();
        assert!(s.contains("2 invariant violation(s)"));
        assert!(s.contains("conservation"));
        assert!(s.contains("still buffered"));
    }

    #[test]
    fn stall_snapshot_prints_stuck_ports() {
        let snap = StallSnapshot {
            now: SimTime::from_us(42),
            events: 1000,
            arena_live: 3,
            nic_queued: 2,
            switch_queued: 1,
            credits_lost: 4,
            stuck_ports: vec![(
                SwitchId(7),
                PortDiag { port: Port(3), vc: 0, credits: 0, input_queued: 1, output_queued: 0 },
            )],
            stuck_hosts: vec![(5, 2, [0, 4096])],
            admission: AdmissionDiag {
                admitted_bw: {
                    let mut bw = [0u64; dqos_core::NUM_CLASSES];
                    bw[TrafficClass::Multimedia.idx()] = 9_000_000;
                    bw
                },
                outstanding: 3,
                fallbacks: 1,
            },
        };
        let s = SimError::Stall(Box::new(snap)).to_string();
        assert!(s.contains("stalled"));
        assert!(s.contains("SwitchId(7)"));
        assert!(s.contains("credits lost"));
        assert!(s.contains("host   5"));
        assert!(s.contains("3 reservations outstanding"), "{s}");
        assert!(s.contains("Multimedia 9.000 MB/s"), "{s}");
        assert!(s.contains("1 fallbacks"), "{s}");
    }
}
