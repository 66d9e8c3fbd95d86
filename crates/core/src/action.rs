//! Actions emitted by node models (switches, NICs) toward the event loop.
//!
//! The switch and end-host models are pure state machines: the simulator
//! calls their `on_*` handlers directly, and each handler pushes
//! [`NodeAction`]s into a caller-owned scratch buffer for the simulator
//! to turn into scheduled events. Keeping the models event-loop-agnostic
//! makes them unit-testable in isolation and reusable outside the full
//! network simulation.

use crate::class::Vc;
use crate::packet::PktTok;
use dqos_sim_core::SimTime;
use dqos_topology::Port;

/// Something a node asks the simulator to do.
///
/// `Copy` on purpose: the runtime drains action buffers into reusable
/// scratch vectors on the hot path, and a 48-byte memcpy beats any
/// ownership dance.
#[derive(Debug, Clone, Copy)]
pub enum NodeAction {
    /// Begin transmitting the packet behind `tok` on `out_port` now; the
    /// transmitter is busy until `finish` (serialisation time), and the
    /// packet arrives at the peer `finish + wire_delay` later. The
    /// emitting node has already accounted credits; its `on_tx_done`
    /// must be called at `finish`.
    StartTx {
        /// The transmitting port.
        out_port: Port,
        /// The packet token, its deadline still in the sender's clock
        /// domain (the simulator performs the TTD re-encoding).
        tok: PktTok,
        /// When serialisation completes.
        finish: SimTime,
    },
    /// Return `bytes` of credit for `vc` to whoever feeds `in_port`.
    SendCredit {
        /// The input port whose buffer freed space.
        in_port: Port,
        /// The virtual channel the space belongs to.
        vc: Vc,
        /// Freed bytes.
        bytes: u32,
    },
    /// Call the node's `on_xbar_done(out_port)` at `at` (internal
    /// crossbar transfer completion; switches only).
    ScheduleXbarDone {
        /// The output port receiving the transfer.
        out_port: Port,
        /// Completion time.
        at: SimTime,
    },
    /// Call the node's `on_wake()` at `at` (eligible-time timer; hosts
    /// only).
    WakeAt {
        /// Wake-up time.
        at: SimTime,
    },
}
