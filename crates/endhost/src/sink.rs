//! Receive side: consume, credit, verify order, reassemble.
//!
//! Hosts drain their delivery link at line rate (the paper's hosts never
//! back-pressure the fabric), so every received packet immediately frees
//! its buffer space and a credit returns upstream.
//!
//! The sink also enforces the paper's correctness claims at runtime:
//! out-of-order delivery within a flow is **counted** (the appendix
//! proves the count must be zero for every architecture, since all four
//! use FIFO-composable structures — the integration tests assert this),
//! and application messages are reassembled so frame latency can be
//! reported as in Figure 3.

use dqos_core::{NodeAction, NodeModel, Packet, TrafficClass};
use dqos_sim_core::SimTime;
use dqos_topology::Port;

/// A fully reassembled application message (frame, control message, or
/// best-effort transfer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompletedMessage {
    /// Traffic class.
    pub class: TrafficClass,
    /// When the message was handed to the source NIC (global time).
    pub created_at: SimTime,
    /// When the last part arrived (global time).
    pub completed_at: SimTime,
    /// Total message bytes.
    pub bytes: u64,
    /// Number of packets it was segmented into.
    pub parts: u32,
    /// The flow it belongs to.
    pub flow: dqos_core::FlowId,
}

/// Receive-side counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct SinkStats {
    /// Packets received.
    pub packets: u64,
    /// Bytes received.
    pub bytes: u64,
    /// Messages completed.
    pub messages: u64,
    /// Out-of-order deliveries observed (must stay 0; see appendix).
    pub out_of_order: u64,
    /// Messages that were abandoned half-assembled (must stay 0 in a
    /// lossless fabric).
    pub broken_messages: u64,
}

/// One flow's receive state: the last `(msg_id, part)` seen and the
/// message under reassembly.
///
/// The message under reassembly needs no id of its own: every packet
/// sets `last_msg` to its message, so while `cur_received > 0` the
/// current message *is* `last_msg`, and otherwise there is none. And a
/// flow that has seen no packet is the one state with `cur_received ==
/// 0` and a non-zero `cur_bytes` ([`UNSEEN`]), since reassembly resets
/// both counters together.
#[derive(Debug, Clone, Copy)]
struct FlowProgress {
    last_msg: u64,
    last_part: u32,
    /// Packets of the current message received so far.
    cur_received: u32,
    /// Bytes of the current message received so far ([`UNSEEN`] before
    /// the flow's first packet).
    cur_bytes: u64,
}

/// `cur_bytes` of a flow that has received nothing.
const UNSEEN: u64 = u64::MAX;

// A widened field must fail the build: a paper-fabric run keeps ≈129 k.
const _: () = assert!(std::mem::size_of::<FlowProgress>() <= 24);

impl Default for FlowProgress {
    fn default() -> Self {
        FlowProgress { last_msg: 0, last_part: 0, cur_received: 0, cur_bytes: UNSEEN }
    }
}

impl FlowProgress {
    fn seen_any(&self) -> bool {
        self.cur_received > 0 || self.cur_bytes != UNSEEN
    }
}

#[derive(Debug)]
struct Band {
    base: usize,
    slots: Vec<FlowProgress>,
}

/// The receive side of one host.
///
/// Per-flow reassembly state lives in **bands**: pre-sized dense slabs
/// covering the contiguous flow-id ranges this host actually terminates
/// (the static flow-id layout gives every destination one video range
/// and one aggregated range). Ids outside every band fall back to a
/// grow-on-demand dense table, so a band-less `Sink::new()` accepts any
/// flow id — at the cost of sizing its table by the largest id seen.
#[derive(Debug, Default)]
pub struct Sink {
    bands: Vec<Band>,
    // Fallback, indexed by FlowId; grown on demand.
    flows: Vec<FlowProgress>,
    stats: SinkStats,
}

impl Sink {
    /// A fresh sink with no bands (everything on the fallback table).
    pub fn new() -> Self {
        Sink::default()
    }

    /// A sink pre-sized for the given `(first_id, count)` flow-id
    /// ranges. Ranges must be disjoint; lookups scan them in order.
    pub fn with_bands(ranges: &[(u32, u32)]) -> Self {
        Sink {
            bands: ranges
                .iter()
                .map(|&(base, count)| Band {
                    base: base as usize,
                    slots: vec![FlowProgress::default(); count as usize],
                })
                .collect(),
            flows: Vec::new(),
            stats: SinkStats::default(),
        }
    }

    fn progress<'a>(
        bands: &'a mut [Band],
        flows: &'a mut Vec<FlowProgress>,
        idx: usize,
    ) -> &'a mut FlowProgress {
        for b in bands {
            if idx >= b.base && idx < b.base + b.slots.len() {
                return &mut b.slots[idx - b.base];
            }
        }
        if idx >= flows.len() {
            flows.resize_with(idx + 1, FlowProgress::default);
        }
        &mut flows[idx]
    }

    /// Counters.
    pub fn stats(&self) -> SinkStats {
        self.stats
    }

    /// A packet arrived at global time `now`. Returns the credit action
    /// for the upstream switch and, if this packet completed a message,
    /// the reassembled record.
    pub fn on_packet(
        &mut self,
        pkt: &Packet,
        now: SimTime,
    ) -> (NodeAction, Option<CompletedMessage>) {
        self.stats.packets += 1;
        self.stats.bytes += pkt.len as u64;

        let fp = Self::progress(&mut self.bands, &mut self.flows, pkt.flow.idx());

        // In-order check: (msg_id, part) must increase lexicographically
        // within a flow.
        if fp.seen_any() {
            let ok = (pkt.msg.msg_id, pkt.msg.part) > (fp.last_msg, fp.last_part);
            if !ok {
                self.stats.out_of_order += 1;
            }
        }
        let cur_msg = fp.last_msg;
        fp.last_msg = pkt.msg.msg_id;
        fp.last_part = pkt.msg.part;

        // Reassembly. In-order delivery makes messages sequential within
        // a flow; a new msg_id while the previous is incomplete means
        // packets were lost, which the lossless fabric forbids. (Id
        // `u64::MAX` is reserved: it marks "no message", so a message
        // with that id never counts as broken.)
        let in_progress = fp.cur_received > 0;
        if !in_progress || cur_msg != pkt.msg.msg_id {
            if in_progress && cur_msg != u64::MAX {
                self.stats.broken_messages += 1;
            }
            fp.cur_received = 0;
            fp.cur_bytes = 0;
        }
        fp.cur_received += 1;
        fp.cur_bytes += pkt.len as u64;

        let completed = if fp.cur_received == pkt.msg.parts {
            self.stats.messages += 1;
            let msg = CompletedMessage {
                class: pkt.class,
                created_at: pkt.msg.created_at,
                completed_at: now,
                bytes: fp.cur_bytes,
                parts: pkt.msg.parts,
                flow: pkt.flow,
            };
            fp.cur_received = 0;
            fp.cur_bytes = 0;
            Some(msg)
        } else {
            None
        };

        // Host consumes instantly: buffer space frees now.
        let credit = NodeAction::SendCredit { in_port: Port(0), vc: pkt.vc(), bytes: pkt.len };
        (credit, completed)
    }
}

impl NodeModel for Sink {
    type Event = Packet;
    type Effect = (NodeAction, Option<CompletedMessage>);

    /// Sinks keep no clock domain of their own: `local` here is the
    /// **global** arrival time, so completion latencies are comparable
    /// across hosts regardless of skew.
    fn on_event(&mut self, local: SimTime, pkt: Packet) -> Self::Effect {
        self.on_packet(&pkt, local)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dqos_core::{FlowId, MsgTag};
    use dqos_topology::{HostId, Route, RouteHop, SwitchId};

    fn pkt(flow: u32, msg_id: u64, part: u32, parts: u32, len: u32) -> Packet {
        Packet {
            id: (msg_id << 8) | part as u64,
            flow: FlowId(flow),
            class: TrafficClass::Multimedia,
            src: HostId(0),
            dst: HostId(1),
            len,
            deadline: SimTime::ZERO,
            eligible: None,
            route: Route::new(
                HostId(0),
                HostId(1),
                vec![RouteHop { switch: SwitchId(0), out_port: Port(1) }],
            )
            .port_path(),
            hop: 0,
            injected_at: SimTime::ZERO,
            msg: MsgTag { msg_id, part, parts, created_at: SimTime::from_us(5) },
            corrupted: false,
        }
    }

    #[test]
    fn single_packet_message_completes() {
        let mut s = Sink::new();
        let (credit, done) = s.on_packet(&pkt(0, 1, 0, 1, 512), SimTime::from_us(9));
        assert!(matches!(credit, NodeAction::SendCredit { bytes: 512, .. }));
        let m = done.unwrap();
        assert_eq!(m.bytes, 512);
        assert_eq!(m.parts, 1);
        assert_eq!(m.created_at, SimTime::from_us(5));
        assert_eq!(m.completed_at, SimTime::from_us(9));
        assert_eq!(s.stats().messages, 1);
    }

    #[test]
    fn multi_part_message_completes_on_last_part() {
        let mut s = Sink::new();
        for part in 0..3 {
            let (_, done) = s.on_packet(&pkt(0, 1, part, 4, 2048), SimTime::from_us(part as u64));
            assert!(done.is_none());
        }
        let (_, done) = s.on_packet(&pkt(0, 1, 3, 4, 100), SimTime::from_us(10));
        let m = done.unwrap();
        assert_eq!(m.bytes, 3 * 2048 + 100);
        assert_eq!(m.parts, 4);
        assert_eq!(s.stats().out_of_order, 0);
        assert_eq!(s.stats().broken_messages, 0);
    }

    #[test]
    fn detects_out_of_order() {
        let mut s = Sink::new();
        s.on_packet(&pkt(0, 1, 1, 3, 100), SimTime::ZERO);
        s.on_packet(&pkt(0, 1, 0, 3, 100), SimTime::ZERO); // regression!
        assert_eq!(s.stats().out_of_order, 1);
    }

    #[test]
    fn flows_are_independent() {
        let mut s = Sink::new();
        s.on_packet(&pkt(0, 5, 0, 2, 100), SimTime::ZERO);
        s.on_packet(&pkt(3, 1, 0, 1, 100), SimTime::ZERO); // other flow, smaller msg id: fine
        assert_eq!(s.stats().out_of_order, 0);
        let (_, done) = s.on_packet(&pkt(0, 5, 1, 2, 100), SimTime::ZERO);
        assert!(done.is_some());
        assert_eq!(s.stats().messages, 2);
    }

    #[test]
    fn counts_broken_messages() {
        let mut s = Sink::new();
        s.on_packet(&pkt(0, 1, 0, 3, 100), SimTime::ZERO);
        // Next message begins while msg 1 is incomplete.
        s.on_packet(&pkt(0, 2, 0, 1, 100), SimTime::ZERO);
        assert_eq!(s.stats().broken_messages, 1);
    }

    #[test]
    fn banded_and_fallback_flows_behave_identically() {
        // Bands [10, 12) and [100, 103); flow 5 spills to the fallback.
        let mut s = Sink::with_bands(&[(10, 2), (100, 3)]);
        for flow in [10u32, 11, 102, 5] {
            let (_, done) = s.on_packet(&pkt(flow, 1, 0, 2, 64), SimTime::ZERO);
            assert!(done.is_none());
            let (_, done) = s.on_packet(&pkt(flow, 1, 1, 2, 64), SimTime::from_us(1));
            assert!(done.is_some(), "flow {flow}");
        }
        assert_eq!(s.stats().messages, 4);
        assert_eq!(s.stats().out_of_order, 0);
        assert_eq!(s.stats().broken_messages, 0);
        // The fallback table only grew to cover the spilled id, not the
        // banded ranges.
        assert!(s.flows.len() <= 6);
    }

    /// The reassembly record as it was before `cur_msg` and `seen_any`
    /// were folded into the other fields: the reference the compact
    /// [`FlowProgress`] must match.
    #[derive(Default)]
    struct WideSink {
        flows: Vec<WideProgress>,
        out_of_order: u64,
        broken_messages: u64,
    }

    #[derive(Clone, Copy)]
    struct WideProgress {
        last_msg: u64,
        last_part: u32,
        seen_any: bool,
        cur_msg: u64,
        cur_received: u32,
        cur_bytes: u64,
    }

    impl WideSink {
        fn on_packet(&mut self, pkt: &Packet, now: SimTime) -> Option<CompletedMessage> {
            let idx = pkt.flow.idx();
            if idx >= self.flows.len() {
                let fresh = WideProgress {
                    last_msg: 0,
                    last_part: 0,
                    seen_any: false,
                    cur_msg: u64::MAX,
                    cur_received: 0,
                    cur_bytes: 0,
                };
                self.flows.resize(idx + 1, fresh);
            }
            let fp = &mut self.flows[idx];
            if fp.seen_any && (pkt.msg.msg_id, pkt.msg.part) <= (fp.last_msg, fp.last_part) {
                self.out_of_order += 1;
            }
            fp.seen_any = true;
            fp.last_msg = pkt.msg.msg_id;
            fp.last_part = pkt.msg.part;
            if fp.cur_msg != pkt.msg.msg_id {
                if fp.cur_msg != u64::MAX && fp.cur_received > 0 {
                    self.broken_messages += 1;
                }
                fp.cur_msg = pkt.msg.msg_id;
                fp.cur_received = 0;
                fp.cur_bytes = 0;
            }
            fp.cur_received += 1;
            fp.cur_bytes += pkt.len as u64;
            (fp.cur_received == pkt.msg.parts).then(|| {
                let msg = CompletedMessage {
                    class: pkt.class,
                    created_at: pkt.msg.created_at,
                    completed_at: now,
                    bytes: fp.cur_bytes,
                    parts: pkt.msg.parts,
                    flow: pkt.flow,
                };
                fp.cur_msg = u64::MAX;
                fp.cur_received = 0;
                fp.cur_bytes = 0;
                msg
            })
        }
    }

    /// Differential: the compact per-flow record against the wide
    /// reference on seeded packet sequences — in order, reordered
    /// (adjacent swaps, within and across flows) and lossy (dropped
    /// packets, message ids up to the reserved `u64::MAX`) — through
    /// banded and fallback flows alike. Every completed message and both
    /// error counters must match.
    #[test]
    fn compact_progress_matches_wide_reference() {
        use dqos_sim_core::SimRng;
        let mut totals = (0u64, 0u64, 0u64);
        for seed in 0..36u64 {
            let mut rng = SimRng::new(0x51C0_0000 + seed);
            let (reorder_p, drop_p) =
                [(0.0, 0.0), (0.1, 0.0), (0.0, 0.05), (0.05, 0.05)][seed as usize % 4];
            // Flows 0..6: 2..4 banded, the rest on the fallback table.
            let mut next_msg: Vec<u64> = (0..6).map(|f| [0, 7, u64::MAX - 3][f % 3]).collect();
            let mut pkts = Vec::new();
            for _ in 0..400 {
                let f = rng.index(6);
                let parts = 1 + rng.index(5) as u32;
                let msg_id = next_msg[f];
                next_msg[f] = msg_id.wrapping_add(1 + rng.index(2) as u64);
                for part in 0..parts {
                    if rng.chance(drop_p) {
                        continue;
                    }
                    let mut p = pkt(f as u32, msg_id, part, parts, 64 + rng.index(2000) as u32);
                    p.msg.created_at = SimTime::from_ns(rng.range_u64(0, 1_000));
                    pkts.push(p);
                }
            }
            for i in 1..pkts.len() {
                if rng.chance(reorder_p) {
                    pkts.swap(i - 1, i);
                }
            }
            let mut compact = Sink::with_bands(&[(2, 2)]);
            let mut wide = WideSink::default();
            for (i, p) in pkts.iter().enumerate() {
                let now = SimTime::from_ns(i as u64 * 10);
                let (_, got) = compact.on_packet(p, now);
                assert_eq!(got, wide.on_packet(p, now), "seed {seed}, packet {i}");
                totals.0 += got.is_some() as u64;
            }
            let st = compact.stats();
            assert_eq!(
                (st.out_of_order, st.broken_messages),
                (wide.out_of_order, wide.broken_messages),
                "seed {seed}"
            );
            totals.1 += st.out_of_order;
            totals.2 += st.broken_messages;
        }
        let (completed, ooo, broken) = totals;
        assert!(completed > 5_000 && ooo > 100 && broken > 100, "{totals:?}");
    }

    #[test]
    fn interleaved_messages_across_flows_reassemble() {
        let mut s = Sink::new();
        s.on_packet(&pkt(0, 1, 0, 2, 10), SimTime::ZERO);
        s.on_packet(&pkt(1, 1, 0, 2, 20), SimTime::ZERO);
        s.on_packet(&pkt(1, 1, 1, 2, 20), SimTime::ZERO);
        let (_, done) = s.on_packet(&pkt(0, 1, 1, 2, 10), SimTime::ZERO);
        assert!(done.is_some());
        assert_eq!(s.stats().messages, 2);
        assert_eq!(s.stats().broken_messages, 0);
    }
}
