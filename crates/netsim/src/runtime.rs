//! The partitioned component runtime.
//!
//! [`crate::Network`] is now only topology wiring plus an executor
//! choice; the simulation itself runs here, as a set of [`Partition`]
//! worlds driven by [`dqos_sim_core::execute`]. Each partition owns the
//! node models of its hosts and switches — [`dqos_switch::Switch`],
//! [`dqos_endhost::Nic`], [`dqos_endhost::Sink`] and
//! [`dqos_traffic::HostSources`] — plus a private struct-of-arrays
//! packet arena ([`crate::arena::SoaArena`]), statistics collector,
//! fault-impairment RNG streams, and its own *replica* of every
//! epoch-mutated table (flow table, link up/down flags, fault
//! injector). Truly immutable state (topology, clock domains, wiring
//! maps) lives in one [`Shared`] that every partition borrows for the
//! whole run (a plain reference: handling an event touches no
//! refcount), alongside the per-edge packet lanes described below.
//!
//! # The token hot path
//!
//! A packet's full struct enters its partition's arena **once**, at
//! stamping, and leaves **once**, at delivery (or at a wire drop, or
//! when it crosses a partition boundary). Everything in between —
//! NIC pacing, switch queues, crossbar, transmitters — moves a 40-byte
//! [`PktTok`] that caches the scheduling-hot fields (deadline, length,
//! VC, output port). Per hop, the runtime touches the arena only to
//! read the interned route for the next output port; handler calls
//! fill action/token scratch buffers owned by the partition, so the
//! steady-state event loop performs no heap allocation at all.
//!
//! Calendar events carry no packet. A token on a wire waits in a FIFO
//! (a `VecDeque`) owned by the link's receiving end — a switch input
//! port or a host's delivery link — from the moment its transmission
//! starts, and the payload-free arrival event ([`Msg::SwitchArrive`],
//! [`Msg::HostArrive`]) pops it. Pop order equals push order because a
//! link has one sender and its arrivals are ordered like its sends:
//! each arrival is the sender's transmit finish time plus the link's
//! constant wire delay, finish times on one transmitter never decrease,
//! and at a shared tick the event keys — `(sender node, per-node
//! sequence)` — order the sender's own events by send order. A wire
//! drop pushes nothing and schedules no arrival. A [`Msg`] is 8 bytes
//! and a calendar entry 32.
//!
//! # Cross-partition hand-off: event rings plus packet lanes
//!
//! A partition-crossing packet is evicted from the sender's arena and
//! word-encoded onto the *packet lane* — a [`SpscRing`] owned by the
//! ordered partition pair — while the arrival event crosses through
//! the executor's event ring as a one-word [`Msg`]. Both rings are SPSC
//! and FIFO, and the lane record is pushed before the event record, so
//! when the receiver drains an arrival event it
//! [`rehydrates`](PartWorld::rehydrate) the lane's front record — pops
//! the packet, re-homes it into its own arena, and queues the rebuilt
//! token on the receiving link's FIFO — before the event is merged into
//! its calendar. One lane and one ring carry every link of a partition
//! pair in send order, so each link's tokens reach its FIFO in order;
//! a drain may queue several future arrivals on one link. No boxing,
//! no locks, no allocation on the steady-state path.
//!
//! Lane sizing: a lane holds at most as many packets as its event ring
//! holds packet-carrying records (the executor backpressures event
//! pushes, and every drained event immediately pops its lane record),
//! so a lane sized comfortably above `ring_words / event_record_words`
//! records can never refuse a push. [`crate::Network`] sizes both.
//!
//! # Why the partitioning is exact
//!
//! The free-running conservative executor reproduces the serial oracle
//! bit for bit because every piece of state is either
//!
//! * owned by exactly one node (models, arenas, per-link fault RNG
//!   streams — each stream is advanced only by the link's sending
//!   node), so its update order is the node's own event order, which
//!   the executor fixes to `(time, key)`; a link's token FIFO belongs
//!   to its receiving node;
//! * immutable for the whole run (clock domains, topology, wiring); or
//! * a per-partition **replica** mutated only by in-band epoch events
//!   (the flow table's routes and admission ledger, link up/down
//!   flags, the fault injector's schedule state). Every replica
//!   applies every epoch at the same point of its local timeline, and
//!   each epoch mutation is a deterministic function of (plan, ledger,
//!   routes, topology) — state the replicas agree on by induction — so
//!   the replicas never diverge. Stamper state inside the flow table
//!   does diverge (each replica advances only its own hosts' virtual
//!   clocks), but no epoch mutation reads it.
//!
//! Event keys encode `(sending node, per-node sequence)`, so the merge
//! order of same-tick events is a pure function of the simulation
//! history, not of which worker produced them first.
//!
//! Hosts are co-partitioned with their leaf switch: the only messages
//! that cross partitions ride leaf↔spine wires, whose latency (wire
//! propagation or credit return, whichever is smaller) is the
//! executor's per-edge lookahead.

use crate::arena::{SoaArena, PKT_ID_HOST_SHIFT};
use crate::collect::Collector;
use crate::config::SimConfig;
use crate::error::{SimError, StallSnapshot};
use crate::flows::{FlowTable, RerouteStats};
use dqos_core::{
    ClockDomain, MsgTag, NodeAction, NodeModel, Packet, PktTok, StampedTimes, TrafficClass, Vc,
    NUM_CLASSES,
};
use dqos_endhost::{Nic, Sink};
use dqos_faults::{CompiledFaults, FaultInjector};
use dqos_sim_core::{Outbox, PartWorld, RingMsg, SimDuration, SimTime, SpscRing};
use dqos_switch::Switch;
use dqos_topology::{FoldedClos, HostId, LinkId, NodeId, Port, PortPath, SwitchId};
use dqos_trace::{Event as TraceEvent, EventKind, ModelNote, Tracer};
use dqos_traffic::{AppMessage, HostSources};
use std::collections::VecDeque;

/// Messages delivered to nodes. Host nodes are ids `[0, n_hosts)`,
/// switch nodes `[n_hosts, n_hosts + n_switches)`. No message carries a
/// packet: an arrival's token waits in the receiving link's FIFO
/// (module docs).
pub(crate) enum Msg {
    /// A traffic source fires (host node).
    SourceFire {
        /// The source's label in its host's set (see
        /// [`dqos_traffic::HostMix`]).
        idx: u32,
    },
    /// NIC eligible-time timer.
    HostWake,
    /// NIC finished serialising a packet.
    HostTxDone,
    /// Credit returned to a NIC.
    HostCredit {
        /// The virtual channel credited.
        vc: Vc,
        /// Freed bytes.
        bytes: u32,
    },
    /// A packet fully arrived at a switch input; its token is the
    /// oldest on the port's wire.
    SwitchArrive {
        /// The receiving input port.
        port: Port,
    },
    /// A switch's internal crossbar transfer completed.
    SwitchXbarDone {
        /// The output port whose transfer finished.
        port: Port,
    },
    /// A switch output link finished serialising.
    SwitchTxDone {
        /// The transmitting output port.
        port: Port,
    },
    /// Credit returned to a switch output.
    SwitchCredit {
        /// The output port credited.
        port: Port,
        /// The virtual channel credited.
        vc: Vc,
        /// Freed bytes.
        bytes: u32,
    },
    /// A packet fully arrived at its destination host; its token is the
    /// oldest on the host's delivery link.
    HostArrive,
}

// The calendar holds `(node, Msg)` payloads: 12 bytes, so an entry
// (time, key, payload) is 32. A packet-carrying variant would put the
// 40-byte token back into every entry.
const _: () = assert!(std::mem::size_of::<(u32, Msg)>() <= 12);
const _: () = assert!(dqos_sim_core::EventQueue::<(u32, Msg)>::ENTRY_BYTES <= 32);

/// Bytes per pending event in a partition's calendar: time, ordering
/// key, destination node and message.
pub const CALENDAR_ENTRY_BYTES: usize =
    dqos_sim_core::EventQueue::<(u32, Msg)>::ENTRY_BYTES;

/// One-word wire format for partition-crossing [`Msg`]s: the variant
/// tag lives in bits 0..8, small fields pack above it. An arrival's
/// packet rides the pair's packet lane, not the word.
impl RingMsg for Msg {
    const MAX_WORDS: usize = 1;

    fn encode(self, out: &mut Vec<u64>) {
        let w = match self {
            Msg::SourceFire { idx } => 0 | (idx as u64) << 8,
            Msg::HostWake => 1,
            Msg::HostTxDone => 2,
            Msg::HostCredit { vc, bytes } => 3 | (vc.0 as u64) << 8 | (bytes as u64) << 32,
            Msg::SwitchArrive { port } => 4 | (port.0 as u64) << 8,
            Msg::SwitchXbarDone { port } => 5 | (port.0 as u64) << 8,
            Msg::SwitchTxDone { port } => 6 | (port.0 as u64) << 8,
            Msg::SwitchCredit { port, vc, bytes } => {
                7 | (port.0 as u64) << 8 | (vc.0 as u64) << 16 | (bytes as u64) << 32
            }
            Msg::HostArrive => 8,
        };
        out.push(w);
    }

    fn decode(words: &[u64]) -> Self {
        let w = words[0];
        let port = Port((w >> 8) as u8);
        match w & 0xFF {
            0 => Msg::SourceFire { idx: (w >> 8) as u32 },
            1 => Msg::HostWake,
            2 => Msg::HostTxDone,
            3 => Msg::HostCredit { vc: Vc((w >> 8) as u8), bytes: (w >> 32) as u32 },
            4 => Msg::SwitchArrive { port },
            5 => Msg::SwitchXbarDone { port },
            6 => Msg::SwitchTxDone { port },
            7 => Msg::SwitchCredit {
                port,
                vc: Vc(((w >> 16) & 0xFF) as u8),
                bytes: (w >> 32) as u32,
            },
            8 => Msg::HostArrive,
            // tidy: allow(no-unwrap) -- the word came from encode() above;
            // any other tag is memory corruption, not a runtime condition.
            t => unreachable!("unknown Msg tag {t}"),
        }
    }
}

/// Words per packet-lane record (excluding the sender's sequence word
/// and the ring's own length prefix). See [`encode_packet`].
pub(crate) const PKT_WORDS: usize = 10;

/// Word-encode a full [`Packet`] for the lane. Fixed layout, 10 words:
/// ids and times flat, small fields packed, the interned route as one
/// byte-packed word (`MAX_ROUTE_HOPS` ≤ 8 ports of one byte each).
/// `injected_at` is not carried (the arena does not keep it either).
pub(crate) fn encode_packet(pkt: &Packet, out: &mut Vec<u64>) {
    out.push(pkt.id);
    out.push(pkt.deadline.as_ns());
    out.push(pkt.msg.msg_id);
    out.push(pkt.msg.created_at.as_ns());
    out.push(pkt.msg.part as u64 | (pkt.msg.parts as u64) << 32);
    out.push(pkt.flow.0 as u64 | (pkt.len as u64) << 32);
    out.push(pkt.src.0 as u64 | (pkt.dst.0 as u64) << 32);
    out.push(
        pkt.class.idx() as u64
            | (pkt.hop as u64) << 8
            | (pkt.corrupted as u64) << 16
            | (pkt.eligible.is_some() as u64) << 17
            | (pkt.route.len() as u64) << 24,
    );
    let mut ports = 0u64;
    for i in 0..pkt.route.len() {
        // tidy: allow(no-unwrap) -- i < route.len() by the loop bound.
        ports |= (pkt.route.port(i).expect("hop within route").0 as u64) << (8 * i);
    }
    out.push(ports);
    out.push(pkt.eligible.unwrap_or(SimTime::ZERO).as_ns());
}

/// Inverse of [`encode_packet`].
pub(crate) fn decode_packet(w: &[u64]) -> Packet {
    debug_assert_eq!(w.len(), PKT_WORDS, "lane record has a fixed layout");
    let flags = w[7];
    let route_len = (flags >> 24) as usize;
    let mut ports = [Port(0); dqos_topology::MAX_ROUTE_HOPS];
    for (i, p) in ports.iter_mut().take(route_len).enumerate() {
        *p = Port((w[8] >> (8 * i)) as u8);
    }
    Packet {
        id: w[0],
        flow: dqos_core::FlowId((w[5] & 0xFFFF_FFFF) as u32),
        class: TrafficClass::from_idx((flags & 0xFF) as usize),
        src: HostId((w[6] & 0xFFFF_FFFF) as u32),
        dst: HostId((w[6] >> 32) as u32),
        len: (w[5] >> 32) as u32,
        deadline: SimTime::from_ns(w[1]),
        eligible: if flags & (1 << 17) != 0 { Some(SimTime::from_ns(w[9])) } else { None },
        route: PortPath::new(&ports[..route_len]),
        hop: ((flags >> 8) & 0xFF) as u8,
        injected_at: SimTime::ZERO,
        msg: MsgTag {
            msg_id: w[2],
            part: (w[4] & 0xFFFF_FFFF) as u32,
            parts: (w[4] >> 32) as u32,
            created_at: SimTime::from_ns(w[3]),
        },
        corrupted: flags & (1 << 16) != 0,
    }
}

/// Who transmits into a given switch input port.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Feeder {
    /// A host NIC (`u32::MAX` = unwired).
    Host(u32),
    /// Another switch's output port.
    Switch(u32, Port),
}

/// State shared by all partitions: immutable wiring, clocks and the
/// epoch schedule, plus the packet lanes. Nothing here is mutated
/// after construction except the lane rings, which are SPSC per
/// ordered partition pair (each end touched by exactly one worker).
/// It outlives the run; partitions borrow it.
pub(crate) struct Shared {
    pub(crate) cfg: SimConfig,
    pub(crate) topo: FoldedClos,
    pub(crate) host_clock: Vec<ClockDomain>,
    pub(crate) sw_clock: Vec<ClockDomain>,
    /// Who feeds each switch input port.
    pub(crate) feeder: Vec<Vec<Feeder>>,
    /// (leaf switch, leaf output port) feeding each host's delivery link.
    pub(crate) host_feed: Vec<(u32, Port)>,
    /// Sources stop emitting after this time.
    pub(crate) source_stop: SimTime,
    pub(crate) n_hosts: u32,
    /// Owning partition of every node.
    pub(crate) part_of: Vec<u32>,
    /// Index of every node within its partition's host/switch list.
    pub(crate) local_idx: Vec<u32>,
    /// Whether a fault plan is compiled in (false short-circuits every
    /// fault query, keeping fault-free runs identical to pre-fault
    /// builds).
    pub(crate) faults_enabled: bool,
    /// Epoch index → indices into the injector's timed schedule firing
    /// at that instant (several plan entries may share a time; the
    /// executor wants strictly ascending epoch times).
    pub(crate) epoch_groups: Vec<(SimTime, Vec<usize>)>,
    /// Packet lanes, one per directed partition edge; parallel to the
    /// executor's event rings (see the module docs for the sizing and
    /// ordering contract).
    pub(crate) lanes: Vec<SpscRing>,
    /// `lane_of[src_part][dst_part]` → index into `lanes` (`None` off
    /// the partition graph).
    pub(crate) lane_of: Vec<Vec<Option<usize>>>,
}

/// Per-host state owned by a partition.
pub(crate) struct HostState {
    pub(crate) nic: Nic,
    pub(crate) sink: Sink,
    pub(crate) sources: HostSources,
    /// Tokens in flight on the host's delivery link.
    pub(crate) wire: VecDeque<PktTok>,
    next_msg_id: u64,
    /// Per-host packet counter; ids are `(host << 40) | counter` so
    /// they are unique and per-flow monotone without global state.
    next_pkt: u64,
    /// Per-node event-key sequence.
    seq: u64,
    /// Next flight-recorder sample boundary (lazy sampler: the first
    /// event at or past it records a sample and advances it).
    next_sample: SimTime,
}

impl HostState {
    pub(crate) fn new(nic: Nic, sink: Sink, sources: HostSources) -> Self {
        HostState {
            nic,
            sink,
            sources,
            wire: VecDeque::new(),
            next_msg_id: 0,
            next_pkt: 0,
            seq: 0,
            next_sample: SimTime::ZERO,
        }
    }
}

/// Per-switch state owned by a partition.
pub(crate) struct SwitchState {
    pub(crate) sw: Switch,
    /// Tokens in flight on the wire into each input port.
    pub(crate) wires: Box<[VecDeque<PktTok>]>,
    seq: u64,
    /// Next flight-recorder sample boundary (see [`HostState`]).
    next_sample: SimTime,
}

impl SwitchState {
    pub(crate) fn new(sw: Switch, ports: usize) -> Self {
        SwitchState {
            sw,
            wires: vec![VecDeque::new(); ports].into_boxed_slice(),
            seq: 0,
            next_sample: SimTime::ZERO,
        }
    }
}

/// One partition of the simulation: the node models it owns plus its
/// private arena, collector, fault-roll RNG streams, and the scratch
/// buffers the allocation-free event loop runs on.
// tidy: hot-path
pub(crate) struct Partition<'s> {
    pub(crate) shared: &'s Shared,
    pub(crate) part: u32,
    /// Global host ids owned, ascending; parallel to `hosts`.
    pub(crate) host_ids: Vec<u32>,
    /// Global switch ids owned, ascending; parallel to `switches`.
    pub(crate) switch_ids: Vec<u32>,
    pub(crate) hosts: Vec<HostState>,
    pub(crate) switches: Vec<SwitchState>,
    /// Struct-of-arrays storage for every resident packet (stamping to
    /// delivery).
    pub(crate) arena: SoaArena,
    pub(crate) collector: Collector,
    /// Private clone of the compiled fault tables. Only the streams of
    /// links whose *sending node* lives here are ever advanced, so each
    /// stream has exactly one consumer across all partitions.
    pub(crate) faults: CompiledFaults,
    /// Replica of the flow table (see the module docs: epoch mutations
    /// are deterministic, so replicas applying the same epochs agree).
    pub(crate) flows: FlowTable,
    /// Replica of the per-link down flags, updated by `on_epoch`.
    pub(crate) link_down: Vec<bool>,
    /// Replica of the timed-fault schedule state (refcounted causes).
    pub(crate) injector: FaultInjector,
    /// Replica of the degraded-mode admission counters. Every replica
    /// computes identical totals, so `finish` reads partition 0's.
    pub(crate) reroute: RerouteStats,
    /// Scratch for lane encode/decode (no allocation per crossing).
    pub(crate) lane_buf: Vec<u64>,
    /// Per-destination-partition lane push counters.
    pub(crate) lane_seq_out: Vec<u32>,
    /// Per-source-partition lane pop counters (debug-checked against
    /// the sequence word of each popped record — a mismatch means the
    /// lane and event ring desynchronised, which the FIFO contract
    /// forbids).
    pub(crate) lane_seq_in: Vec<u32>,
    pub(crate) fault_dropped: [u64; NUM_CLASSES],
    pub(crate) fault_corrupted: [u64; NUM_CLASSES],
    pub(crate) fault_deadline_miss: [u64; NUM_CLASSES],
    pub(crate) credits_lost: u64,
    pub(crate) offered_messages: u64,
    /// Latest event time handled (for stall snapshots).
    pub(crate) last_t: SimTime,
    /// Flight recorder for events on this partition's nodes (inert
    /// unless the run enables tracing; see `dqos-trace`).
    pub(crate) tracer: Tracer,
    /// Scratch buffer for draining model notes without reallocating.
    pub(crate) notes: Vec<ModelNote>,
    /// Scratch buffer for node-handler actions (taken/restored around
    /// every handler call; handlers never re-enter each other).
    pub(crate) act_buf: Vec<NodeAction>,
    /// Scratch buffer for a message's stamped tokens.
    pub(crate) tok_buf: Vec<PktTok>,
    /// Scratch buffer for a message's packet lengths.
    pub(crate) part_buf: Vec<u32>,
    /// Scratch buffer for a message's deadline stamps.
    pub(crate) stamp_buf: Vec<StampedTimes>,
}

impl Partition<'_> {
    /// Event key for the next send from `node`: `(node, seq)` packed so
    /// same-tick merge order is a function of simulation history only.
    fn next_key(&mut self, node: u32) -> u64 {
        let n = self.shared.n_hosts;
        let seq = if node < n {
            let s = &mut self.hosts[self.shared.local_idx[node as usize] as usize].seq;
            let v = *s;
            *s += 1;
            v
        } else {
            let s =
                &mut self.switches[self.shared.local_idx[node as usize] as usize].seq;
            let v = *s;
            *s += 1;
            v
        };
        ((node as u64) << 40) | seq
    }

    #[inline]
    fn host_mut(&mut self, host: u32) -> &mut HostState {
        &mut self.hosts[self.shared.local_idx[host as usize] as usize]
    }

    #[inline]
    fn switch_mut(&mut self, sw_node: u32) -> &mut SwitchState {
        &mut self.switches[self.shared.local_idx[sw_node as usize] as usize]
    }

    /// The FIFO of the link into `port` of `node` (a local node): the
    /// switch input port's wire, or a host's delivery link (`port` is
    /// then ignored).
    #[inline]
    fn wire_mut(&mut self, node: u32, port: Port) -> &mut VecDeque<PktTok> {
        let li = self.shared.local_idx[node as usize] as usize;
        if node < self.shared.n_hosts {
            &mut self.hosts[li].wire
        } else {
            &mut self.switches[li].wires[port.idx()]
        }
    }

    /// Put `tok` on the link into `port` of `dst_node`. A same-partition
    /// receiver gets the token on its link FIFO now (the resident
    /// packet stays put in the arena); for a receiver in another
    /// partition the arena-evicted packet (header fields synced from
    /// the token) is word-encoded onto the pair's lane, and the
    /// receiver queues it when it drains the arrival event.
    fn wire(&mut self, shared: &Shared, dst_node: u32, port: Port, tok: PktTok) {
        let dst_part = shared.part_of[dst_node as usize];
        if dst_part == self.part {
            self.wire_mut(dst_node, port).push_back(tok);
            return;
        }
        let pkt = self.arena.take(&tok);
        let seq = self.lane_seq_out[dst_part as usize];
        self.lane_seq_out[dst_part as usize] = seq.wrapping_add(1);
        self.lane_buf.clear();
        self.lane_buf.push(seq as u64);
        encode_packet(&pkt, &mut self.lane_buf);
        let lane = shared.lane_of[self.part as usize][dst_part as usize]
            // tidy: allow(no-unwrap) -- Network::build creates a lane for
            // every directed partition edge of the topology; a send with
            // no lane is a partitioning bug.
            .expect("partition edge has a lane");
        // Lane capacity covers every packet its event ring can hold
        // (see the module docs), so a refused push is a sizing bug —
        // and spinning here could deadlock, so fail loudly instead.
        assert!(
            shared.lanes[lane].push(&self.lane_buf),
            "packet lane {} -> {} overflowed (sizing contract broken)",
            self.part,
            dst_part
        );
    }

    /// Pop the next record off the `from_part → self` lane and re-home
    /// the packet into this partition's arena, returning its token. The
    /// token's output port is the route's port at the current hop — for
    /// a delivery (hop past the route's end) it is a placeholder the
    /// sink never reads.
    fn claim_from_lane(&mut self, from_part: u32) -> PktTok {
        let lane = self.shared.lane_of[from_part as usize][self.part as usize]
            // tidy: allow(no-unwrap) -- a drained arrival came over the
            // edge this lane belongs to; its absence is a partitioning bug.
            .expect("arrival names an existing lane");
        let mut buf = std::mem::take(&mut self.lane_buf);
        let popped = self.shared.lanes[lane].pop(&mut buf);
        // The lane record is pushed before its event record, and both
        // rings are FIFO, so the arrival being drained proves its
        // packet is already in the lane.
        assert!(popped, "lane {from_part} -> {} empty at claim", self.part);
        let seq = self.lane_seq_in[from_part as usize];
        debug_assert_eq!(buf[0] as u32, seq, "lane pop order diverged from arrival order");
        self.lane_seq_in[from_part as usize] = seq.wrapping_add(1);
        let pkt = decode_packet(&buf[1..]);
        buf.clear();
        self.lane_buf = buf;
        let slot = self.arena.insert(&pkt);
        let out = pkt.route.port(pkt.hop as usize).unwrap_or(Port(0));
        PktTok::of(&pkt, slot, out)
    }

    /// Current up/down state of a directed link (replica flags, updated
    /// only by epoch events).
    #[inline]
    fn link_is_down(&self, link: LinkId) -> bool {
        self.link_down[link.idx()]
    }

    /// Lazy per-node occupancy sampler: the first event a node handles at
    /// or past its sample boundary records a [`EventKind::Sample`] of the
    /// node's **pre-event** state and advances the boundary. Keying the
    /// sampler to the node's own event stream keeps it a pure function of
    /// simulation history (worker-invariant); a wall-period timer thread
    /// would not be.
    fn maybe_sample(&mut self, node: u32, now: SimTime) {
        let Some(period) = self.tracer.sample_period() else { return };
        let li = self.shared.local_idx[node as usize] as usize;
        // The boundary computation (a division) is deferred until a
        // sample is actually due: this runs on every event handled.
        let next = |now: SimTime| SimTime::from_ns((now.as_ns() / period + 1) * period);
        let kind = if node < self.shared.n_hosts {
            let hs = &mut self.hosts[li];
            if now < hs.next_sample {
                return;
            }
            hs.next_sample = next(now);
            EventKind::Sample {
                queued: hs.nic.queued_packets() as u32,
                credit0: hs.nic.credits(Vc::REGULATED),
                credit1: hs.nic.credits(Vc::BEST_EFFORT),
            }
        } else {
            let ss = &mut self.switches[li];
            if now < ss.next_sample {
                return;
            }
            ss.next_sample = next(now);
            EventKind::Sample {
                queued: ss.sw.occupancy_packets() as u32,
                credit0: ss.sw.credit_total(Vc::REGULATED),
                credit1: ss.sw.credit_total(Vc::BEST_EFFORT),
            }
        };
        self.tracer.record(TraceEvent { at: now, node, pkt: 0, kind });
    }

    /// Drain the NIC's flight-recorder notes (called right after every
    /// NIC handler), stamping them with the global handling time.
    fn drain_host_notes(&mut self, host: u32, now: SimTime) {
        let li = self.shared.local_idx[host as usize] as usize;
        let mut buf = std::mem::take(&mut self.notes);
        self.hosts[li].nic.swap_notes(&mut buf);
        for n in &buf {
            if let ModelNote::Promoted { pkt } = *n {
                self.tracer.record(TraceEvent {
                    at: now,
                    node: host,
                    pkt,
                    kind: EventKind::Eligible,
                });
            }
        }
        buf.clear();
        self.notes = buf;
    }

    /// Drain the switch's flight-recorder notes (called right after every
    /// switch handler), stamping them with the global handling time.
    fn drain_switch_notes(&mut self, sw_node: u32, now: SimTime) {
        let li = self.shared.local_idx[sw_node as usize] as usize;
        let mut buf = std::mem::take(&mut self.notes);
        self.switches[li].sw.swap_notes(&mut buf);
        for n in &buf {
            let kind = match *n {
                ModelNote::XbarGrant { vc, take_over, fifo, .. } => {
                    EventKind::HopArbitrate { vc, take_over, fifo }
                }
                ModelNote::XbarDone { .. } => EventKind::HopXbarDone,
                // NIC-only note; a switch never emits it.
                ModelNote::Promoted { .. } => continue,
            };
            let pkt = match *n {
                ModelNote::XbarGrant { pkt, .. }
                | ModelNote::XbarDone { pkt }
                | ModelNote::Promoted { pkt } => pkt,
            };
            self.tracer.record(TraceEvent { at: now, node: sw_node, pkt, kind });
        }
        buf.clear();
        self.notes = buf;
    }

    /// Run a NIC handler against the partition's action scratch and
    /// apply what it emitted. The scratch is taken/restored around the
    /// call; nothing downstream re-enters a node handler, so the
    /// partition's buffer cannot be taken twice.
    fn with_nic(
        &mut self,
        shared: &Shared,
        host: u32,
        now: SimTime,
        out: &mut Outbox<'_, Msg>,
        f: impl FnOnce(&mut Nic, SimTime, &mut Vec<NodeAction>),
    ) {
        let local = shared.host_clock[host as usize].local(now);
        let mut acts = std::mem::take(&mut self.act_buf);
        f(&mut self.host_mut(host).nic, local, &mut acts);
        self.apply_host_actions(shared, host, &acts, now, out);
        acts.clear();
        self.act_buf = acts;
    }

    /// [`Partition::with_nic`] for switch handlers.
    fn with_switch(
        &mut self,
        shared: &Shared,
        sw_node: u32,
        now: SimTime,
        out: &mut Outbox<'_, Msg>,
        f: impl FnOnce(&mut Switch, SimTime, &mut Vec<NodeAction>),
    ) -> Result<(), SimError> {
        let s = (sw_node - shared.n_hosts) as usize;
        let local = shared.sw_clock[s].local(now);
        let mut acts = std::mem::take(&mut self.act_buf);
        f(&mut self.switch_mut(sw_node).sw, local, &mut acts);
        let res = self.apply_switch_actions(shared, sw_node, &acts, now, out);
        acts.clear();
        self.act_buf = acts;
        res
    }

    fn source_fire(
        &mut self,
        shared: &Shared,
        host: u32,
        idx: u32,
        now: SimTime,
        out: &mut Outbox<'_, Msg>,
    ) {
        let (msg, next) = self.host_mut(host).sources.fire(idx, now);
        if next <= shared.source_stop {
            let k = self.next_key(host);
            out.send(host, next, k, Msg::SourceFire { idx });
        }
        self.handle_message(shared, host, msg, now, out);
    }

    fn handle_message(
        &mut self,
        shared: &Shared,
        host: u32,
        msg: AppMessage,
        now: SimTime,
        out: &mut Outbox<'_, Msg>,
    ) {
        self.offered_messages += 1;
        self.collector.offered(msg.class, msg.bytes, now);
        let src = HostId(host);
        // Segment and stamp into the partition's scratch buffers: no
        // allocation per message.
        let mut parts = std::mem::take(&mut self.part_buf);
        let mut stamps = std::mem::take(&mut self.stamp_buf);
        dqos_core::segment_message_into(msg.bytes, shared.cfg.mtu, &mut parts);
        let local = shared.host_clock[host as usize].local(now);
        let lead = shared.cfg.eligible_lead_ns.map(SimDuration::from_ns);
        // The route is a `Copy` port path, read once per message;
        // stamping it into each packet below is a plain field copy.
        let (flow_id, route) = match msg.stream {
            Some(s) => {
                let (id, dst, choice) =
                    self.flows.stamp_video(src, s, local, &parts, lead, &mut stamps);
                (id, shared.topo.port_path(src, dst, choice))
            }
            None => {
                let route = self.flows.aggregated_path(src, msg.dst);
                let id = self.flows.aggregated_flow_id(src, msg.dst, msg.class);
                self.flows.stamp_aggregated(src, msg.class, local, &parts, &mut stamps);
                (id, route)
            }
        };
        let first_out = route
            .port(0)
            // tidy: allow(no-unwrap) -- every route has at least the leaf
            // hop (hosts never message themselves), so hop 0 exists.
            .expect("route has a first hop");
        let trace_on = self.tracer.on();
        // Deadlines are stamped in the host's local clock domain; the
        // recorder wants them in global ticks so the attribution pass
        // can compare against global delivery times directly.
        let clock = shared.host_clock[host as usize];
        let li = shared.local_idx[host as usize] as usize;
        let mut toks = std::mem::take(&mut self.tok_buf);
        // Direct field borrows below keep `hs`, the arena, and the
        // tracer disjoint so the stamping loop stays allocation-free.
        let hs = &mut self.hosts[li];
        let msg_id = hs.next_msg_id;
        hs.next_msg_id += 1;
        let n = parts.len() as u32;
        for (i, (&len, st)) in parts.iter().zip(&stamps).enumerate() {
            let id = ((host as u64) << PKT_ID_HOST_SHIFT) | hs.next_pkt;
            hs.next_pkt += 1;
            let pkt = Packet {
                id,
                flow: flow_id,
                class: msg.class,
                src,
                dst: msg.dst,
                len,
                deadline: st.deadline,
                eligible: st.eligible,
                route,
                hop: 0,
                injected_at: SimTime::ZERO,
                msg: MsgTag { msg_id, part: i as u32, parts: n, created_at: now },
                corrupted: false,
            };
            if trace_on {
                self.tracer.record(TraceEvent {
                    at: now,
                    node: host,
                    pkt: id,
                    kind: EventKind::Stamped {
                        class: pkt.class.idx() as u8,
                        len,
                        deadline: clock.global_of(st.deadline),
                    },
                });
            }
            let slot = self.arena.insert(&pkt);
            toks.push(PktTok::of(&pkt, slot, first_out));
        }
        parts.clear();
        stamps.clear();
        self.part_buf = parts;
        self.stamp_buf = stamps;
        let mut acts = std::mem::take(&mut self.act_buf);
        self.hosts[li].nic.enqueue_batch(&toks, local, &mut acts);
        toks.clear();
        self.tok_buf = toks;
        self.apply_host_actions(shared, host, &acts, now, out);
        acts.clear();
        self.act_buf = acts;
    }

    fn apply_host_actions(
        &mut self,
        shared: &Shared,
        host: u32,
        actions: &[NodeAction],
        now: SimTime,
        out: &mut Outbox<'_, Msg>,
    ) {
        if self.tracer.on() {
            // Every call site runs this right after the NIC handler, so
            // the drained notes belong to the event handled at `now`.
            self.drain_host_notes(host, now);
        }
        let clock = shared.host_clock[host as usize];
        for &a in actions {
            match a {
                NodeAction::StartTx { tok, finish, .. } => {
                    let finish_g = clock.global_of(finish);
                    let k = self.next_key(host);
                    out.send(host, finish_g, k, Msg::HostTxDone);
                    if self.tracer.on() {
                        // Serialisation starts at the handling instant;
                        // `finish` is start + tx time.
                        self.tracer.record(TraceEvent {
                            at: now,
                            node: host,
                            pkt: tok.id,
                            kind: EventKind::Injected,
                        });
                    }
                    self.ship_from_host(shared, host, tok, finish_g, now, out);
                }
                NodeAction::WakeAt { at } => {
                    let k = self.next_key(host);
                    out.send(host, clock.global_of(at), k, Msg::HostWake);
                }
                NodeAction::SendCredit { .. } | NodeAction::ScheduleXbarDone { .. } => {
                    // tidy: allow(no-unwrap) -- the NIC state machine has no
                    // transition emitting these; reaching here is a sim bug.
                    unreachable!("NICs emit only StartTx and WakeAt")
                }
            }
        }
    }

    fn ship_from_host(
        &mut self,
        shared: &Shared,
        host: u32,
        mut tok: PktTok,
        finish_g: SimTime,
        now: SimTime,
        out: &mut Outbox<'_, Msg>,
    ) {
        let end = shared.topo.host_out_link(HostId(host));
        // tidy: allow(no-unwrap) -- FoldedClos wires every host uplink to a
        // leaf switch; any other peer is a topology-builder bug.
        let NodeId::Switch(sw) = end.peer else { unreachable!("hosts attach to switches") };
        let arrive = finish_g + shared.cfg.wire_delay;
        if shared.faults_enabled {
            if self.link_is_down(end.link) || self.faults.roll_drop(end.link) {
                // The wire ate the packet. The NIC already spent a credit
                // for it, and the switch buffer it would have occupied
                // never fills — so the credit synthesizes straight back,
                // exactly as if the switch had received and instantly
                // freed it. (Without this, every drop leaks injection
                // credit and the host eventually wedges.) The arena slot
                // is reclaimed here: the resident packet is gone.
                self.fault_dropped[tok.class.idx()] += 1;
                let _ = self.arena.take(&tok);
                if self.tracer.on() {
                    // Recorded at the handling instant, not the would-be
                    // arrival: future-dated events would break the
                    // trace ring's exact-prefix truncation guarantee.
                    self.tracer.record(TraceEvent {
                        at: now,
                        node: host,
                        pkt: tok.id,
                        kind: EventKind::DroppedWire,
                    });
                }
                let k = self.next_key(host);
                out.send(
                    host,
                    arrive + shared.cfg.credit_delay,
                    k,
                    Msg::HostCredit { vc: tok.vc, bytes: tok.len },
                );
                return;
            }
            if self.faults.roll_corrupt(end.link) {
                self.arena.set_corrupted(tok.slot);
            }
        }
        // TTD transport (§3.3): relative deadline on the wire. The TTD is
        // part of the header and is rewritten as the packet transits, so
        // encode and decode straddle only the wire propagation — a
        // *constant* slide that preserves per-flow deadline monotonicity
        // (encoding at serialisation start would slide each packet by its
        // own length and break the appendix hypothesis).
        let ttd = ClockDomain::encode_ttd(
            tok.deadline,
            shared.host_clock[host as usize].local(finish_g),
        );
        tok.deadline = ClockDomain::decode_ttd(ttd, shared.sw_clock[sw.idx()].local(arrive));
        tok.eligible = SimTime::ZERO; // host-only field, not in the header
        let dst_node = shared.n_hosts + sw.0;
        self.wire(shared, dst_node, end.peer_port, tok);
        let k = self.next_key(host);
        out.send(dst_node, arrive, k, Msg::SwitchArrive { port: end.peer_port });
    }

    fn apply_switch_actions(
        &mut self,
        shared: &Shared,
        sw_node: u32,
        actions: &[NodeAction],
        now: SimTime,
        out: &mut Outbox<'_, Msg>,
    ) -> Result<(), SimError> {
        if self.tracer.on() {
            // Every call site runs this right after the switch handler, so
            // the drained notes belong to the event handled at `now`.
            self.drain_switch_notes(sw_node, now);
        }
        let s = (sw_node - shared.n_hosts) as usize;
        let clock = shared.sw_clock[s];
        for &a in actions {
            match a {
                NodeAction::StartTx { out_port, tok, finish } => {
                    let finish_g = clock.global_of(finish);
                    let k = self.next_key(sw_node);
                    out.send(sw_node, finish_g, k, Msg::SwitchTxDone { port: out_port });
                    if self.tracer.on() {
                        // Serialisation starts at the handling instant;
                        // `finish` is start + tx time.
                        self.tracer.record(TraceEvent {
                            at: now,
                            node: sw_node,
                            pkt: tok.id,
                            kind: EventKind::HopTxStart,
                        });
                    }
                    self.ship_from_switch(shared, sw_node, out_port, tok, finish_g, now, out)?;
                }
                NodeAction::SendCredit { in_port, vc, bytes } => {
                    let at = now + shared.cfg.credit_delay;
                    // The data link feeding `in_port`; the returning
                    // credit travels its reverse wire, so the credit-loss
                    // impairment is keyed on it.
                    let (dst_node, msg, data_link) = match shared.feeder[s][in_port.idx()] {
                        Feeder::Host(h) if h == u32::MAX => {
                            return Err(SimError::UnwiredFeeder {
                                switch: SwitchId(s as u32),
                                port: in_port,
                            });
                        }
                        Feeder::Host(h) => (
                            h,
                            Msg::HostCredit { vc, bytes },
                            shared.topo.host_out_link(HostId(h)).link,
                        ),
                        Feeder::Switch(s2, p2) => {
                            let end = shared
                                .topo
                                .switch_out_link(SwitchId(s2), p2)
                                .ok_or(SimError::UnwiredPort { switch: SwitchId(s2), port: p2 })?;
                            (
                                shared.n_hosts + s2,
                                Msg::SwitchCredit { port: p2, vc, bytes },
                                end.link,
                            )
                        }
                    };
                    if shared.faults_enabled && self.faults.roll_credit_loss(data_link) {
                        self.credits_lost += 1;
                    } else {
                        let k = self.next_key(sw_node);
                        out.send(dst_node, at, k, msg);
                    }
                }
                NodeAction::ScheduleXbarDone { out_port, at } => {
                    let k = self.next_key(sw_node);
                    out.send(sw_node, clock.global_of(at), k, Msg::SwitchXbarDone { port: out_port });
                }
                // tidy: allow(no-unwrap) -- the switch state machine never
                // emits WakeAt; reaching here is a simulator bug.
                NodeAction::WakeAt { .. } => unreachable!("switches don't sleep"),
            }
        }
        Ok(())
    }

    fn ship_from_switch(
        &mut self,
        shared: &Shared,
        sw_node: u32,
        out_port: Port,
        mut tok: PktTok,
        finish_g: SimTime,
        now: SimTime,
        out: &mut Outbox<'_, Msg>,
    ) -> Result<(), SimError> {
        let s = sw_node - shared.n_hosts;
        let end = shared
            .topo
            .switch_out_link(SwitchId(s), out_port)
            .ok_or(SimError::UnwiredPort { switch: SwitchId(s), port: out_port })?;
        let arrive = finish_g + shared.cfg.wire_delay;
        if shared.faults_enabled {
            if self.link_is_down(end.link) || self.faults.roll_drop(end.link) {
                // Dropped on the wire: the downstream buffer never fills,
                // so this switch's output credit for the hop synthesizes
                // back (see ship_from_host). The arena slot is reclaimed.
                self.fault_dropped[tok.class.idx()] += 1;
                let _ = self.arena.take(&tok);
                if self.tracer.on() {
                    // At `now`, not the would-be arrival (see
                    // ship_from_host).
                    self.tracer.record(TraceEvent {
                        at: now,
                        node: sw_node,
                        pkt: tok.id,
                        kind: EventKind::DroppedWire,
                    });
                }
                let k = self.next_key(sw_node);
                out.send(
                    sw_node,
                    arrive + shared.cfg.credit_delay,
                    k,
                    Msg::SwitchCredit { port: out_port, vc: tok.vc, bytes: tok.len },
                );
                return Ok(());
            }
            if self.faults.roll_corrupt(end.link) {
                self.arena.set_corrupted(tok.slot);
            }
        }
        // Leaving this switch: advancing the hop is the runtime's job
        // (the switch model never sees the route), and reading the next
        // routing decision is the one arena access of the hop.
        tok.hop += 1;
        match end.peer {
            NodeId::Switch(next) => {
                // See ship_from_host for why the TTD is encoded at
                // serialisation end.
                let ttd = ClockDomain::encode_ttd(
                    tok.deadline,
                    shared.sw_clock[s as usize].local(finish_g),
                );
                tok.deadline =
                    ClockDomain::decode_ttd(ttd, shared.sw_clock[next.idx()].local(arrive));
                tok.out = self.arena.out_port_at(tok.slot, tok.hop);
                let dst_node = shared.n_hosts + next.0;
                self.wire(shared, dst_node, end.peer_port, tok);
                let k = self.next_key(sw_node);
                out.send(dst_node, arrive, k, Msg::SwitchArrive { port: end.peer_port });
            }
            NodeId::Host(h) => {
                self.wire(shared, h.0, end.peer_port, tok);
                let k = self.next_key(sw_node);
                out.send(h.0, arrive, k, Msg::HostArrive);
            }
        }
        Ok(())
    }

    fn handle_delivery(
        &mut self,
        shared: &Shared,
        host: u32,
        pkt: Packet,
        now: SimTime,
        out: &mut Outbox<'_, Msg>,
    ) {
        if self.tracer.on() {
            let kind = if pkt.corrupted {
                EventKind::DeliveredCorrupt
            } else {
                EventKind::Delivered
            };
            self.tracer.record(TraceEvent { at: now, node: host, pkt: pkt.id, kind });
        }
        if pkt.corrupted {
            // CRC failure at the destination: the payload is discarded
            // before the sink sees it (so reassembly and order tracking
            // treat it as a loss), but the buffer space it occupied still
            // frees — the credit returns exactly as for a good packet.
            self.fault_corrupted[pkt.class.idx()] += 1;
            self.delivery_credit(shared, host, pkt.vc(), pkt.len, now, out);
            return;
        }
        if shared.faults_enabled
            && shared.cfg.arch.uses_deadlines()
            && pkt.class.is_regulated()
        {
            // Only the regulated classes carry real deadlines; the VC1
            // classes' virtual-clock deadlines lag by design whenever a
            // class offers more than its record. The final hop carries no
            // TTD, so the deadline is still in the transmitting leaf's
            // clock domain.
            let (leaf, _) = shared.host_feed[host as usize];
            if now > shared.sw_clock[leaf as usize].global_of(pkt.deadline) {
                self.fault_deadline_miss[pkt.class.idx()] += 1;
            }
        }
        let (class, len, created) = (pkt.class, pkt.len, pkt.msg.created_at);
        let (credit, completed) = self.host_mut(host).sink.on_event(now, pkt);
        self.collector.packet_delivered(class, len, created, now);
        if let Some(m) = completed {
            self.collector.message_completed(m.class, m.flow, m.created_at, m.completed_at);
        }
        let NodeAction::SendCredit { vc, bytes, .. } = credit else {
            // tidy: allow(no-unwrap) -- Sink::on_event returns SendCredit
            // unconditionally; any other action is a simulator bug.
            unreachable!("sink returns exactly one credit")
        };
        self.delivery_credit(shared, host, vc, bytes, now, out);
    }

    /// Return delivery-link buffer credit to the feeding leaf — unless
    /// the credit-loss impairment eats it.
    fn delivery_credit(
        &mut self,
        shared: &Shared,
        host: u32,
        vc: Vc,
        bytes: u32,
        now: SimTime,
        out: &mut Outbox<'_, Msg>,
    ) {
        if shared.faults_enabled
            && self.faults.roll_credit_loss(shared.topo.host_delivery_link(HostId(host)))
        {
            self.credits_lost += 1;
            return;
        }
        let (leaf, port) = shared.host_feed[host as usize];
        let k = self.next_key(host);
        out.send(
            shared.n_hosts + leaf,
            now + shared.cfg.credit_delay,
            k,
            Msg::SwitchCredit { port, vc, bytes },
        );
    }
}

impl PartWorld for Partition<'_> {
    type Msg = Msg;
    type Err = SimError;

    fn seed(&mut self, out: &mut Outbox<'_, Msg>) {
        let stop = self.shared.source_stop;
        for hi in 0..self.host_ids.len() {
            let host = self.host_ids[hi];
            for idx in 0..self.hosts[hi].sources.len() {
                let t = self.hosts[hi].sources.first_arrival(idx as u32);
                if t <= stop {
                    let k = self.next_key(host);
                    out.send(host, t, k, Msg::SourceFire { idx: idx as u32 });
                }
            }
        }
    }

    fn handle(
        &mut self,
        now: SimTime,
        node: u32,
        msg: Msg,
        out: &mut Outbox<'_, Msg>,
    ) -> Result<(), SimError> {
        self.last_t = now;
        // Copying the `&Shared` out of `self` lets helpers take it
        // alongside `&mut self`.
        let shared = self.shared;
        if self.tracer.on() {
            self.maybe_sample(node, now);
        }
        match msg {
            Msg::SourceFire { idx } => {
                self.source_fire(shared, node, idx, now, out);
            }
            Msg::HostWake => {
                self.with_nic(shared, node, now, out, |nic, local, acts| {
                    nic.on_wake(local, acts);
                });
            }
            Msg::HostTxDone => {
                self.with_nic(shared, node, now, out, |nic, local, acts| {
                    nic.on_tx_done(local, acts);
                });
            }
            Msg::HostCredit { vc, bytes } => {
                self.with_nic(shared, node, now, out, |nic, local, acts| {
                    nic.on_credit(vc, bytes, local, acts);
                });
            }
            Msg::SwitchArrive { port } => {
                let tok = self.switch_mut(node).wires[port.idx()]
                    .pop_front()
                    // tidy: allow(no-unwrap) -- every arrival event was
                    // scheduled with its token pushed (locally at send,
                    // or at drain for a crossing), in arrival order.
                    .expect("an arrival finds its token on the wire");
                if self.tracer.on() {
                    self.tracer.record(TraceEvent {
                        at: now,
                        node,
                        pkt: tok.id,
                        kind: EventKind::HopEnqueue { vc: tok.vc.idx() as u8 },
                    });
                }
                self.with_switch(shared, node, now, out, |sw, local, acts| {
                    sw.on_packet_arrival(port, tok, local, acts);
                })?;
            }
            Msg::SwitchXbarDone { port } => {
                self.with_switch(shared, node, now, out, |sw, local, acts| {
                    sw.on_xbar_done(port, local, acts);
                })?;
            }
            Msg::SwitchTxDone { port } => {
                self.with_switch(shared, node, now, out, |sw, local, acts| {
                    sw.on_tx_done(port, local, acts);
                })?;
            }
            Msg::SwitchCredit { port, vc, bytes } => {
                self.with_switch(shared, node, now, out, |sw, local, acts| {
                    sw.on_credit(port, vc, bytes, local, acts);
                })?;
            }
            Msg::HostArrive => {
                let tok = self
                    .host_mut(node)
                    .wire
                    .pop_front()
                    // tidy: allow(no-unwrap) -- see SwitchArrive above.
                    .expect("an arrival finds its token on the wire");
                // Reassembled with the token's header fields: the
                // TTD-decoded deadline is still in the transmitting
                // leaf's domain (the final hop carries no TTD).
                let pkt = self.arena.take(&tok);
                self.handle_delivery(shared, node, pkt, now, out);
            }
        }
        Ok(())
    }

    /// Apply one timed-fault instant to this partition's replicas: flip
    /// link state through the private injector (a [`NodeModel`] in its
    /// own right), refresh the down flags, and re-route/re-admit flows.
    /// The free-running executor delivers the same epoch sequence to
    /// **every** partition at the right point of its local timeline;
    /// each mutation below is a deterministic function of state the
    /// replicas agree on, so they stay identical (module docs).
    fn on_epoch(&mut self, idx: usize) {
        let shared = self.shared;
        let (at, ref timed_idxs) = shared.epoch_groups[idx];
        for &ti in timed_idxs {
            let (links, down) = self.injector.on_event(at, ti);
            for &l in &links {
                self.link_down[l.idx()] = down;
            }
            let stats = if down {
                self.flows.fail_links(&shared.topo, &links)
            } else {
                self.flows.restore_links(&shared.topo, &links)
            };
            self.reroute.absorb(stats);
        }
        debug_assert!(
            self.flows.with_admission(|a| a.max_utilization()) <= 1.0,
            "degraded re-admission oversubscribed the ledger"
        );
    }

    /// Queue a partition-crossing packet at drain time: an arrival's
    /// packet is the front record of the sender's lane, and its token
    /// joins the receiving link's FIFO.
    fn rehydrate(&mut self, from_part: u32, node: u32, msg: Msg) -> Msg {
        let port = match msg {
            Msg::SwitchArrive { port } => port,
            // A host has one incoming link.
            Msg::HostArrive => Port(0),
            _ => return msg,
        };
        let tok = self.claim_from_lane(from_part);
        self.wire_mut(node, port).push_back(tok);
        msg
    }
}

/// Fold one partition's end-of-run state into the aggregates `Network`
/// turns into a [`crate::RunSummary`].
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct PartTotals {
    pub(crate) injected: u64,
    pub(crate) delivered: u64,
    pub(crate) out_of_order: u64,
    pub(crate) broken: u64,
    pub(crate) residual_nic: u64,
    pub(crate) residual_sw: u64,
    pub(crate) take_over: u64,
    pub(crate) order_errors: u64,
    pub(crate) offered: u64,
    pub(crate) peak_in_flight: u64,
    pub(crate) dropped: [u64; NUM_CLASSES],
    pub(crate) corrupted: [u64; NUM_CLASSES],
    pub(crate) deadline_miss: [u64; NUM_CLASSES],
    pub(crate) credits_lost: u64,
}

impl PartTotals {
    pub(crate) fn absorb(&mut self, p: &Partition<'_>) {
        self.injected += p.hosts.iter().map(|h| h.nic.stats().injected_packets).sum::<u64>();
        self.delivered += p.hosts.iter().map(|h| h.sink.stats().packets).sum::<u64>();
        self.out_of_order += p.hosts.iter().map(|h| h.sink.stats().out_of_order).sum::<u64>();
        self.broken += p.hosts.iter().map(|h| h.sink.stats().broken_messages).sum::<u64>();
        self.residual_nic += p.hosts.iter().map(|h| h.nic.queued_packets() as u64).sum::<u64>();
        self.residual_sw +=
            p.switches.iter().map(|s| s.sw.occupancy_packets() as u64).sum::<u64>();
        self.take_over += p.switches.iter().map(|s| s.sw.take_over_total()).sum::<u64>();
        self.order_errors += p.switches.iter().map(|s| s.sw.stats().order_errors).sum::<u64>();
        self.offered += p.offered_messages;
        // Per-partition maximum, not a sum: arena high-water marks of
        // different partitions peak at different instants, so a sum is
        // not a meaningful global footprint. The summary reports this
        // with an explicit per-partition-max aggregation marker.
        self.peak_in_flight = self.peak_in_flight.max(p.arena.high_water() as u64);
        for c in 0..NUM_CLASSES {
            self.dropped[c] += p.fault_dropped[c];
            self.corrupted[c] += p.fault_corrupted[c];
            self.deadline_miss[c] += p.fault_deadline_miss[c];
        }
        self.credits_lost += p.credits_lost;
    }
}

/// Where is everything? Taken when a watchdog fires. The admission
/// view comes from partition 0's flow-table replica (all replicas hold
/// identical ledgers — module docs).
pub(crate) fn stall_snapshot(parts: &[Partition<'_>], now: SimTime, events: u64) -> StallSnapshot {
    let mut stuck_ports = Vec::new();
    let mut stuck_hosts = Vec::new();
    let mut arena_live = 0usize;
    let mut nic_queued = 0usize;
    let mut switch_queued = 0usize;
    let mut credits_lost = 0u64;
    for p in parts {
        arena_live += p.arena.live();
        credits_lost += p.credits_lost;
        for (si, s) in p.switch_ids.iter().zip(&p.switches) {
            switch_queued += s.sw.occupancy_packets();
            if s.sw.occupancy_packets() == 0 {
                continue;
            }
            for d in s.sw.diag() {
                if d.input_queued != 0 || d.output_queued != 0 || d.credits == 0 {
                    stuck_ports.push((SwitchId(*si), d));
                }
            }
        }
        for (h, hs) in p.host_ids.iter().zip(&p.hosts) {
            nic_queued += hs.nic.queued_packets();
            if hs.nic.queued_packets() != 0 {
                stuck_hosts.push((
                    *h,
                    hs.nic.queued_packets(),
                    [hs.nic.credits(Vc::REGULATED), hs.nic.credits(Vc::BEST_EFFORT)],
                ));
            }
        }
    }
    // Partition iteration visits switches/hosts out of global order when
    // several partitions run; the diagnostics sort so snapshots are
    // stable either way.
    stuck_ports.sort_by_key(|(sw, d)| (sw.0, d.port.idx(), d.vc));
    stuck_hosts.sort_by_key(|(h, ..)| *h);
    StallSnapshot {
        now,
        events,
        arena_live,
        nic_queued,
        switch_queued,
        credits_lost,
        stuck_ports,
        stuck_hosts,
        admission: parts[0].flows.admission_diag(),
    }
}
