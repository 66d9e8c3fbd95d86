//! The component runtime.
//!
//! [`crate::Network`] is only topology wiring; the simulation itself
//! runs here, as one [`Sim`] world driven by [`dqos_sim_core::execute`].
//! It owns every node model — [`dqos_switch::Switch`],
//! [`dqos_endhost::Nic`], [`dqos_endhost::Sink`] and
//! [`dqos_traffic::HostSources`] — plus the struct-of-arrays packet
//! arena ([`crate::arena::SoaArena`]), the statistics collector, the
//! fault-impairment RNG streams and every epoch-mutated table (flow
//! table, link up/down flags, fault injector). Immutable state
//! (topology, clock domains, wiring maps) lives in one [`Shared`] that
//! the world borrows for the whole run (a plain reference: handling an
//! event touches no refcount).
//!
//! # The token hot path
//!
//! A packet's full struct enters the arena **once**, at stamping, and
//! leaves **once**, at delivery (or at a wire drop). Everything in
//! between — NIC pacing, switch queues, crossbar, transmitters — moves a
//! 40-byte [`PktTok`] that caches the scheduling-hot fields (deadline,
//! length, VC, output port). Per hop, the runtime touches the arena only
//! to read the interned route for the next output port; handler calls
//! fill action/token scratch buffers owned by the world, so the
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
//! Event keys encode `(sending node, per-node sequence)`, so the order
//! of same-tick events is a pure function of the simulation history.

use crate::arena::{SoaArena, PKT_ID_HOST_SHIFT};
use crate::collect::Collector;
use crate::config::SimConfig;
use crate::error::{SimError, StallSnapshot};
use crate::flows::{FlowTable, RerouteStats};
use dqos_core::{ClockDomain, MsgTag, NodeAction, Packet, PktTok, StampedTimes, Vc, NUM_CLASSES};
use dqos_endhost::{Nic, Sink};
use dqos_faults::{CompiledFaults, FaultInjector};
use dqos_sim_core::{Outbox, SimDuration, SimTime, World};
use dqos_switch::Switch;
use dqos_topology::{FoldedClos, HostId, LinkId, NodeId, Port, SwitchId};
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

/// Bytes per pending event in the calendar: time, ordering key,
/// destination node and message.
pub const CALENDAR_ENTRY_BYTES: usize =
    dqos_sim_core::EventQueue::<(u32, Msg)>::ENTRY_BYTES;

/// Who transmits into a given switch input port.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Feeder {
    /// A host NIC (`u32::MAX` = unwired).
    Host(u32),
    /// Another switch's output port.
    Switch(u32, Port),
}

/// Immutable wiring, clocks and the epoch schedule. It outlives the
/// run; the [`Sim`] borrows it.
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
    /// Whether a fault plan is compiled in (false short-circuits every
    /// fault query, keeping fault-free runs identical to pre-fault
    /// builds).
    pub(crate) faults_enabled: bool,
    /// Epoch index → indices into the injector's timed schedule firing
    /// at that instant (several plan entries may share a time; the
    /// executor wants strictly ascending epoch times).
    pub(crate) epoch_groups: Vec<(SimTime, Vec<usize>)>,
}

/// Per-host state.
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

/// Per-switch state.
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

/// The simulation: every node model plus the arena, collector,
/// fault-roll RNG streams, and the scratch buffers the allocation-free
/// event loop runs on.
// tidy: hot-path
pub(crate) struct Sim<'s> {
    pub(crate) shared: &'s Shared,
    /// Indexed by host id.
    pub(crate) hosts: Vec<HostState>,
    /// Indexed by switch id (node id minus the host count).
    pub(crate) switches: Vec<SwitchState>,
    /// Struct-of-arrays storage for every resident packet (stamping to
    /// delivery).
    pub(crate) arena: SoaArena,
    pub(crate) collector: Collector,
    /// The compiled fault tables. Each link's stream is advanced only
    /// by the link's sending node.
    pub(crate) faults: CompiledFaults,
    /// Routes, stamping state and the admission ledger.
    pub(crate) flows: FlowTable,
    /// Per-link down flags, updated by `on_epoch`.
    pub(crate) link_down: Vec<bool>,
    /// The timed-fault schedule state (refcounted causes).
    pub(crate) injector: FaultInjector,
    /// Degraded-mode admission counters.
    pub(crate) reroute: RerouteStats,
    pub(crate) fault_dropped: [u64; NUM_CLASSES],
    pub(crate) fault_corrupted: [u64; NUM_CLASSES],
    pub(crate) fault_deadline_miss: [u64; NUM_CLASSES],
    pub(crate) credits_lost: u64,
    pub(crate) offered_messages: u64,
    /// Latest event time handled (for stall snapshots).
    pub(crate) last_t: SimTime,
    /// Flight recorder (inert unless the run enables tracing; see
    /// `dqos-trace`).
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

impl Sim<'_> {
    /// Event key for the next send from `node`: `(node, seq)` packed so
    /// same-tick merge order is a function of simulation history only.
    fn next_key(&mut self, node: u32) -> u64 {
        let n = self.shared.n_hosts;
        let s = if node < n {
            &mut self.hosts[node as usize].seq
        } else {
            &mut self.switches[(node - n) as usize].seq
        };
        let seq = *s;
        *s += 1;
        ((node as u64) << 40) | seq
    }

    #[inline]
    fn host_mut(&mut self, host: u32) -> &mut HostState {
        &mut self.hosts[host as usize]
    }

    #[inline]
    fn switch_mut(&mut self, sw_node: u32) -> &mut SwitchState {
        &mut self.switches[(sw_node - self.shared.n_hosts) as usize]
    }

    /// Current up/down state of a directed link (the `link_down` flags,
    /// updated only by epoch events).
    #[inline]
    fn link_is_down(&self, link: LinkId) -> bool {
        self.link_down[link.idx()]
    }

    /// Lazy per-node occupancy sampler: the first event a node handles at
    /// or past its sample boundary records a [`EventKind::Sample`] of the
    /// node's **pre-event** state and advances the boundary. Keying the
    /// sampler to the node's own event stream keeps it a pure function of
    /// simulation history; a wall-period timer thread would not be.
    fn maybe_sample(&mut self, node: u32, now: SimTime) {
        let Some(period) = self.tracer.sample_period() else { return };
        let n_hosts = self.shared.n_hosts;
        // The boundary computation (a division) is deferred until a
        // sample is actually due: this runs on every event handled.
        let next = |now: SimTime| SimTime::from_ns((now.as_ns() / period + 1) * period);
        let kind = if node < n_hosts {
            let hs = &mut self.hosts[node as usize];
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
            let ss = &mut self.switches[(node - n_hosts) as usize];
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
        let mut buf = std::mem::take(&mut self.notes);
        self.hosts[host as usize].nic.swap_notes(&mut buf);
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
        let mut buf = std::mem::take(&mut self.notes);
        self.switch_mut(sw_node).sw.swap_notes(&mut buf);
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

    /// Run a NIC handler against the world's action scratch and apply
    /// what it emitted. The scratch is taken/restored around the call;
    /// nothing downstream re-enters a node handler, so the buffer cannot
    /// be taken twice.
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

    /// [`Sim::with_nic`] for switch handlers.
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
        // Segment and stamp into the world's scratch buffers: no
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
        let mut toks = std::mem::take(&mut self.tok_buf);
        // Direct field borrows below keep `hs`, the arena, and the
        // tracer disjoint so the stamping loop stays allocation-free.
        let hs = &mut self.hosts[host as usize];
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
        self.hosts[host as usize].nic.enqueue_batch(&toks, local, &mut acts);
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
        self.switches[sw.idx()].wires[end.peer_port.idx()].push_back(tok);
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
                self.switches[next.idx()].wires[end.peer_port.idx()].push_back(tok);
                let k = self.next_key(sw_node);
                out.send(dst_node, arrive, k, Msg::SwitchArrive { port: end.peer_port });
            }
            NodeId::Host(h) => {
                self.hosts[h.idx()].wire.push_back(tok);
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
        let ((vc, bytes), completed) = self.host_mut(host).sink.on_packet(&pkt, now);
        self.collector.packet_delivered(class, len, created, now);
        if let Some(m) = completed {
            self.collector.message_completed(m.class, m.flow, m.created_at, m.completed_at);
        }
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

impl World for Sim<'_> {
    type Msg = Msg;
    type Err = SimError;

    fn seed(&mut self, out: &mut Outbox<'_, Msg>) {
        let stop = self.shared.source_stop;
        for hi in 0..self.hosts.len() {
            let host = hi as u32;
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
                    // scheduled with its token pushed, in arrival order.
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

    /// Apply one timed-fault instant: flip link state through the
    /// injector, refresh the down flags, and re-route/re-admit flows.
    fn on_epoch(&mut self, idx: usize) {
        let shared = self.shared;
        let (_, ref timed_idxs) = shared.epoch_groups[idx];
        for &ti in timed_idxs {
            let (links, down) = self.injector.apply(ti);
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
}

impl Sim<'_> {
    /// Packets still queued in NICs and switches.
    pub(crate) fn residual_packets(&self) -> u64 {
        let nic: usize = self.hosts.iter().map(|h| h.nic.queued_packets()).sum();
        let sw: usize = self.switches.iter().map(|s| s.sw.occupancy_packets()).sum();
        (nic + sw) as u64
    }

    /// Where is everything? Taken when a watchdog fires.
    pub(crate) fn stall_snapshot(&self, now: SimTime, events: u64) -> StallSnapshot {
        let mut stuck_ports = Vec::new();
        let mut stuck_hosts = Vec::new();
        let mut switch_queued = 0usize;
        for (si, s) in self.switches.iter().enumerate() {
            switch_queued += s.sw.occupancy_packets();
            if s.sw.occupancy_packets() == 0 {
                continue;
            }
            for d in s.sw.diag() {
                if d.input_queued != 0 || d.output_queued != 0 || d.credits == 0 {
                    stuck_ports.push((SwitchId(si as u32), d));
                }
            }
        }
        let mut nic_queued = 0usize;
        for (h, hs) in self.hosts.iter().enumerate() {
            nic_queued += hs.nic.queued_packets();
            if hs.nic.queued_packets() != 0 {
                stuck_hosts.push((
                    h as u32,
                    hs.nic.queued_packets(),
                    [hs.nic.credits(Vc::REGULATED), hs.nic.credits(Vc::BEST_EFFORT)],
                ));
            }
        }
        StallSnapshot {
            now,
            events,
            arena_live: self.arena.live(),
            nic_queued,
            switch_queued,
            credits_lost: self.credits_lost,
            stuck_ports,
            stuck_hosts,
            admission: self.flows.admission_diag(),
        }
    }
}
