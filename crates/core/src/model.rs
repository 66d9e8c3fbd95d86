//! The component model: nodes as typed event handlers.
//!
//! A network element (switch, NIC, sink, traffic source, fault
//! injector) is a pure state machine: the runtime hands it one typed
//! event at a node-local timestamp and receives back a typed effect —
//! usually a list of [`NodeAction`]s to turn into scheduled events.
//! Models never see the event loop, the topology wiring, or each other;
//! that is what keeps them unit-testable in isolation.
//!
//! The trait is deliberately minimal. Events and effects are associated
//! types rather than one grand enum so each model keeps its natural
//! vocabulary ([`SwitchEvent`] for switches, [`NicEvent`] for NICs, a
//! bare [`Packet`](crate::packet::Packet) for sinks) and pays nothing
//! for variants it can never receive.

use crate::action::NodeAction;
use crate::class::Vc;
use crate::packet::PktTok;
use dqos_sim_core::SimTime;
use dqos_topology::Port;

/// A network element driven by typed events.
///
/// `local` is the node's **local clock** reading: the runtime translates
/// the global event time through the node's
/// [`ClockDomain`](crate::clock::ClockDomain) before invoking the
/// handler, and translates times inside emitted effects back. Models
/// with no clock domain of their own (sinks report global completion
/// times) document which domain they expect.
pub trait NodeModel {
    /// The inbound event vocabulary of this node type.
    type Event;
    /// What handling one event produces.
    type Effect;
    /// Handle `ev` at local time `local`.
    fn on_event(&mut self, local: SimTime, ev: Self::Event) -> Self::Effect;
}

/// Events a switch receives.
#[derive(Debug)]
pub enum SwitchEvent {
    /// A packet fully arrived on `in_port` (deadline already decoded
    /// into this switch's clock domain, output port already resolved
    /// from the arena-resident route).
    Arrive {
        /// Receiving input port.
        in_port: Port,
        /// The packet token.
        tok: PktTok,
    },
    /// The crossbar transfer into `out_port` completed.
    XbarDone {
        /// Output port that received the transfer.
        out_port: Port,
    },
    /// The link on `out_port` finished serialising.
    TxDone {
        /// The transmitting port.
        out_port: Port,
    },
    /// Downstream returned credit for (`out_port`, `vc`).
    Credit {
        /// Port whose downstream buffer freed space.
        out_port: Port,
        /// Virtual channel the space belongs to.
        vc: Vc,
        /// Freed bytes.
        bytes: u32,
    },
}

/// Events a host NIC receives.
#[derive(Debug)]
pub enum NicEvent {
    /// The application handed down freshly stamped packet tokens.
    Enqueue(Vec<PktTok>),
    /// An eligible-time timer fired.
    Wake,
    /// The injection link finished serialising.
    TxDone,
    /// The upstream switch returned credit.
    Credit {
        /// Virtual channel credited.
        vc: Vc,
        /// Freed bytes.
        bytes: u32,
    },
}

/// Blanket effect type used by switch and NIC models.
pub type Actions = Vec<NodeAction>;
