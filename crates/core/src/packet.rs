//! The packet: the only thing a switch is allowed to know about a flow.
//!
//! A cornerstone of the proposal (§3) is that switches keep **no**
//! per-flow state; scheduling uses only what is in the packet header —
//! the deadline tag (carried as a TTD on the wire, see [`crate::clock`])
//! and the routing information. Everything else on this struct
//! (`injected_at`, `msg`) is simulator instrumentation that a real header
//! would not carry; it is used solely by the statistics sink.

use crate::class::{TrafficClass, Vc};
use crate::flow::FlowId;
use dqos_sim_core::SimTime;
use dqos_topology::{HostId, Port, PortPath};

/// Globally unique packet identifier (simulator-side, for accounting).
pub type PacketId = u64;

/// Message/frame tag: which application message this packet is part `part`
/// of, out of `parts`. Lets the sink reassemble frames and measure
/// *frame* latency, which is how Figure 3 reports multimedia results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MsgTag {
    /// Message id, unique per source host.
    pub msg_id: u64,
    /// Index of this packet within the message (0-based).
    pub part: u32,
    /// Total packets in the message.
    pub parts: u32,
    /// Global time the message was handed to the NIC (stats only).
    pub created_at: SimTime,
}

/// A network packet in flight.
///
/// Plain old data: every field is `Copy`, the route is interned into a
/// fixed-size [`PortPath`] at flow setup, so moving a packet between
/// queues, events and the arena is a flat memcpy with no allocator or
/// refcount traffic.
#[derive(Debug, Clone, Copy)]
pub struct Packet {
    /// Simulator-unique id.
    pub id: PacketId,
    /// The flow this packet belongs to (stamped by the source host; the
    /// sink uses it for in-order verification, switches never read it).
    pub flow: FlowId,
    /// Traffic class (determines the VC).
    pub class: TrafficClass,
    /// Source host.
    pub src: HostId,
    /// Destination host.
    pub dst: HostId,
    /// Length in bytes (payload + header; at the paper's 8 Gb/s this is
    /// also the serialisation time in nanoseconds).
    pub len: u32,
    /// The deadline tag, expressed in the clock domain of whichever node
    /// currently holds the packet (see [`crate::clock::Ttd`]).
    pub deadline: SimTime,
    /// Eligible time: the earliest local time the *source host* may
    /// inject the packet. Not transmitted in the header (§3.1) and
    /// meaningless after injection.
    pub eligible: Option<SimTime>,
    /// The fixed route assigned at flow setup, interned to its output
    /// ports (switches never read anything else from it).
    pub route: PortPath,
    /// Index of the next hop in `route`.
    pub hop: u8,
    /// Global time of injection into the network (stats only). Nothing
    /// reads it, so the simulator's packet arena does not keep it and
    /// packets it reassembles carry [`SimTime::ZERO`].
    pub injected_at: SimTime,
    /// Message/frame reassembly tag (stats only).
    pub msg: MsgTag,
    /// Payload was damaged in flight (models a CRC failure detected at
    /// the destination: the packet traverses the fabric and consumes
    /// resources, but the sink discards it). Only fault injection sets
    /// this.
    pub corrupted: bool,
}

/// The hot-path view of a packet: everything a switch or NIC scheduler
/// reads, and nothing else.
///
/// The rest of the [`Packet`] (its interned route and stats tags)
/// lives in the simulator's struct-of-arrays arena from
/// stamping to delivery; queues, crossbars, and transmitters move this
/// 40-byte token instead. `slot` is the arena handle; the cold fields
/// (route, message tag, flow) are fetched through it only at hop
/// boundaries and at delivery.
///
/// A real switch sees exactly this much of a packet — the deadline tag
/// and the routing decision — so the token is also the honest model of
/// the paper's "no per-flow state in the fabric" claim (§3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PktTok {
    /// Simulator-unique id (for the flight recorder and accounting).
    pub id: PacketId,
    /// The deadline tag, in the clock domain of the node holding the
    /// token (the runtime performs TTD re-encoding between domains).
    pub deadline: SimTime,
    /// Eligible time at the source host; [`SimTime::ZERO`] means
    /// "immediately eligible" (an `eligible > now` test is then never
    /// true, matching the `Option::None` semantics of [`Packet`]).
    pub eligible: SimTime,
    /// Arena slot holding the full [`Packet`].
    pub slot: u32,
    /// Length in bytes (also serialisation nanoseconds at 8 Gb/s).
    pub len: u32,
    /// Output port at the switch currently holding the token (the
    /// runtime refreshes this from the arena route at each hop).
    pub out: Port,
    /// Index of the current hop in the arena-resident route.
    pub hop: u8,
    /// Virtual channel (derived from the class at stamping).
    pub vc: Vc,
    /// Traffic class, for per-class accounting on drop paths.
    pub class: TrafficClass,
}

impl PktTok {
    /// Build the token for `pkt`, resident in arena slot `slot`.
    /// `out` must be `pkt.current_out_port()` at the node receiving the
    /// token.
    #[inline]
    pub fn of(pkt: &Packet, slot: u32, out: Port) -> Self {
        PktTok {
            id: pkt.id,
            deadline: pkt.deadline,
            eligible: pkt.eligible.unwrap_or(SimTime::ZERO),
            slot,
            len: pkt.len,
            out,
            hop: pkt.hop,
            vc: pkt.vc(),
            class: pkt.class,
        }
    }
}

impl Packet {
    /// The virtual channel this packet travels on.
    #[inline]
    pub fn vc(&self) -> Vc {
        self.class.vc()
    }

    /// Output port at the current hop's switch.
    #[inline]
    pub fn current_out_port(&self) -> dqos_topology::Port {
        self.route
            .port(self.hop as usize)
            // tidy: allow(no-unwrap) -- hop is advanced only by switches on
            // the stamped path, so it cannot pass the route's end.
            .expect("packet hop index within route")
    }

    /// Whether the current hop is the last switch before the destination.
    #[inline]
    pub fn at_last_hop(&self) -> bool {
        self.route.is_last_hop(self.hop as usize)
    }

    /// Advance to the next hop (called when the packet leaves a switch).
    #[inline]
    pub fn advance_hop(&mut self) {
        self.hop += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dqos_topology::{Port, Route, RouteHop, SwitchId};

    fn test_packet() -> Packet {
        let route = Route::new(
            HostId(0),
            HostId(9),
            vec![
                RouteHop { switch: SwitchId(0), out_port: Port(8) },
                RouteHop { switch: SwitchId(2), out_port: Port(1) },
                RouteHop { switch: SwitchId(1), out_port: Port(1) },
            ],
        )
        .port_path();
        Packet {
            id: 1,
            flow: FlowId(7),
            class: TrafficClass::Multimedia,
            src: HostId(0),
            dst: HostId(9),
            len: 2048,
            deadline: SimTime::from_us(50),
            eligible: Some(SimTime::from_us(30)),
            route,
            hop: 0,
            injected_at: SimTime::ZERO,
            msg: MsgTag { msg_id: 3, part: 0, parts: 4, created_at: SimTime::ZERO },
            corrupted: false,
        }
    }

    #[test]
    fn vc_follows_class() {
        let p = test_packet();
        assert_eq!(p.vc(), Vc::REGULATED);
        let mut p2 = p.clone();
        p2.class = TrafficClass::Background;
        assert_eq!(p2.vc(), Vc::BEST_EFFORT);
    }

    #[test]
    fn hop_walk() {
        let mut p = test_packet();
        assert_eq!(p.current_out_port(), Port(8));
        assert!(!p.at_last_hop());
        p.advance_hop();
        assert_eq!(p.current_out_port(), Port(1));
        p.advance_hop();
        assert!(p.at_last_hop());
        assert_eq!(p.current_out_port(), Port(1));
    }
}
