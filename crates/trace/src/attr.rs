//! Slack attribution: apportion each deadline miss across pipeline stages.
//!
//! A packet stamped at `t0` with deadline `d` and delivered at `t_del`
//! satisfies, by construction of the event stream,
//!
//! ```text
//! t_del - t0 = Σ stage spans        (the spans tile [t0, t_del] exactly)
//! miss       = t_del - d = Σ spans - (d - t0) = Σ spans - initial_slack
//! ```
//!
//! so the per-stage numbers reported here sum **exactly in ticks** to the
//! observed miss plus the initial slack — there is no rounding and no
//! residual bucket. What the *labels* mean is heuristic, though: a wait
//! between enqueue and crossbar grant is classified by how the queue was
//! serving (take-over, deadline-ordered, FIFO), not by a counterfactual
//! ("it would have made it had the arbiter been ideal"). See DESIGN.md §9
//! for what this does and does not prove.

use crate::{Event, EventKind};
use dqos_sim_core::SimTime;

/// Pipeline stages a packet's lifetime is tiled into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlackStage {
    /// Waiting in the NIC pacing queue for the eligible time (the
    /// end-host Virtual Clock regulator deliberately holding the packet).
    Pacing = 0,
    /// Eligible but waiting for NIC credit / the host link.
    Injection = 1,
    /// Waiting in a deadline-ordered input queue for a crossbar grant.
    VcArbitration = 2,
    /// Waiting in a FIFO input queue — head-of-line blocking (§4 of the
    /// paper; the order-error penalty lives here).
    HolBlocking = 3,
    /// Served via the take-over queue: the wait endured while displaced
    /// behind urgent traffic that took over the head slot.
    TakeOver = 4,
    /// Won the crossbar but stalled waiting for output credit / link.
    LinkStall = 5,
    /// Busy time: serialisation, wire flight, crossbar transfer.
    Transit = 6,
}

/// Number of stages in [`SlackStage`].
pub const NUM_STAGES: usize = 7;

/// Stage labels, indexed by `SlackStage as usize`.
pub const STAGE_NAMES: [&str; NUM_STAGES] = [
    "pacing",
    "injection",
    "vc_arbitration",
    "hol_blocking",
    "take_over",
    "link_stall",
    "transit",
];

/// Attribution for one delivered, deadline-missing packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketSlack {
    pub pkt: u64,
    pub class: u8,
    /// Stamping time (global clock).
    pub stamped: SimTime,
    /// Deadline (global clock) recorded at stamping.
    pub deadline: SimTime,
    pub delivered: SimTime,
    /// `delivered - deadline`, > 0 for every entry in
    /// [`Attribution::packets`].
    pub miss: u64,
    /// `deadline - stamped` (may be negative under extreme clock skew).
    pub initial_slack: i64,
    /// Ticks spent per stage; indexed by `SlackStage as usize`. Sums to
    /// `delivered - stamped` exactly.
    pub stages: [u64; NUM_STAGES],
}

impl PacketSlack {
    /// Total attributed ticks — always exactly `delivered - stamped`.
    pub fn total(&self) -> u64 {
        self.stages.iter().sum()
    }
}

/// Per-class rollup. Stage sums cover **missed packets only** (the pass
/// explains misses, not the latency of on-time traffic).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClassSlack {
    /// Packets delivered intact (on time or late).
    pub delivered: u64,
    /// Delivered past their deadline.
    pub missed: u64,
    /// Σ miss over missed packets.
    pub miss_ticks: u64,
    /// Σ initial slack over missed packets.
    pub initial_slack_ticks: i64,
    /// Σ per-stage ticks over missed packets. The class identity
    /// `Σ stages - initial_slack_ticks == miss_ticks` holds exactly.
    pub stages: [u64; NUM_STAGES],
}

impl ClassSlack {
    pub fn stage_total(&self) -> u64 {
        self.stages.iter().sum()
    }
}

/// Result of [`attribute`].
#[derive(Debug, Clone, Default)]
pub struct Attribution {
    /// Dense per-class rollups, indexed by class id (length = highest
    /// class seen + 1).
    pub classes: Vec<ClassSlack>,
    /// Every delivered packet that missed its deadline, ordered by
    /// packet id.
    pub packets: Vec<PacketSlack>,
    /// Deliveries that missed their deadline but whose event sequence was
    /// incomplete (ring truncation): they still count as `delivered`, but
    /// their stage spans cannot be reconstructed, so they are excluded
    /// from `missed` and the stage rollups and reported here instead.
    pub incomplete: u64,
    /// Events referencing a packet whose `Stamped` record was not in the
    /// trace (ring truncation); skipped.
    pub orphan_events: u64,
}

/// What we were waiting for since the previous event of this packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Stamped,
    Eligible,
    Injected,
    Enqueued,
    Granted,
    XbarDone,
    TxStart,
}

struct Journey {
    class: u8,
    t0: SimTime,
    deadline: SimTime,
    last: SimTime,
    phase: Phase,
    stages: [u64; NUM_STAGES],
    /// False once an unexpected transition is seen (truncated trace).
    ok: bool,
}

/// Run the attribution pass over a canonically ordered trace
/// (see [`crate::Tracer::finish`]). Packets dropped or corrupted in flight end
/// their journey unattributed; only intact deliveries are classified.
///
/// The pass groups events by packet with one index sort instead of a
/// per-event map: within a group the index tiebreak preserves the
/// trace's canonical order, so each packet is replayed exactly as the
/// serial stream saw it. (This is the hot half of a traced run's
/// overhead budget — see the `trace_overhead` example gate.)
pub fn attribute(events: &[Event]) -> Attribution {
    let mut out = Attribution::default();
    let mut order: Vec<(u64, u32)> = Vec::with_capacity(events.len());
    for (i, e) in events.iter().enumerate() {
        if !matches!(e.kind, EventKind::Sample { .. }) {
            order.push((e.pkt, i as u32));
        }
    }
    order.sort_unstable();
    let mut lo = 0;
    while lo < order.len() {
        let pkt = order[lo].0;
        let mut hi = lo;
        while hi < order.len() && order[hi].0 == pkt {
            hi += 1;
        }
        attribute_packet(pkt, &order[lo..hi], events, &mut out);
        lo = hi;
    }
    out
}

/// Replay one packet's events (time-ordered) through the stage machine.
fn attribute_packet(pkt: u64, group: &[(u64, u32)], events: &[Event], out: &mut Attribution) {
    let mut journey: Option<Journey> = None;
    for &(_, idx) in group {
        let e = &events[idx as usize];
        let kind = e.kind;
        if let EventKind::Stamped { class, deadline, .. } = kind {
            journey = Some(Journey {
                class,
                t0: e.at,
                deadline,
                last: e.at,
                phase: Phase::Stamped,
                stages: [0; NUM_STAGES],
                ok: true,
            });
            continue;
        }
        let Some(j) = journey.as_mut() else {
            out.orphan_events += 1;
            continue;
        };
        let span = e.at.since(j.last).as_ns();
        let bucket = match (j.phase, kind) {
            (Phase::Stamped, EventKind::Eligible) => Some(SlackStage::Pacing),
            (Phase::Stamped | Phase::Eligible, EventKind::Injected) => Some(SlackStage::Injection),
            (Phase::Injected | Phase::TxStart, EventKind::HopEnqueue { .. }) => {
                Some(SlackStage::Transit)
            }
            (Phase::Enqueued, EventKind::HopArbitrate { take_over, fifo, .. }) => Some(if take_over {
                SlackStage::TakeOver
            } else if fifo {
                SlackStage::HolBlocking
            } else {
                SlackStage::VcArbitration
            }),
            (Phase::Granted, EventKind::HopXbarDone) => Some(SlackStage::Transit),
            (Phase::XbarDone, EventKind::HopTxStart) => Some(SlackStage::LinkStall),
            // `Injected` covers packets eaten by the host's own wire:
            // they terminate without ever reaching a switch hop.
            (
                Phase::Injected | Phase::TxStart,
                EventKind::Delivered | EventKind::DeliveredCorrupt | EventKind::DroppedWire,
            ) => Some(SlackStage::Transit),
            _ => None,
        };
        match bucket {
            Some(stage) => j.stages[stage as usize] += span,
            None => j.ok = false,
        }
        j.last = e.at;
        j.phase = match kind {
            EventKind::Eligible => Phase::Eligible,
            EventKind::Injected => Phase::Injected,
            EventKind::HopEnqueue { .. } => Phase::Enqueued,
            EventKind::HopArbitrate { .. } => Phase::Granted,
            EventKind::HopXbarDone => Phase::XbarDone,
            EventKind::HopTxStart => Phase::TxStart,
            _ => j.phase,
        };
        match kind {
            EventKind::Delivered => {
                let Some(j) = journey.take() else {
                    continue;
                };
                let idx = j.class as usize;
                if out.classes.len() <= idx {
                    out.classes.resize(idx + 1, ClassSlack::default());
                }
                let c = &mut out.classes[idx];
                c.delivered += 1;
                if e.at > j.deadline {
                    if !j.ok {
                        out.incomplete += 1;
                        continue;
                    }
                    let miss = (e.at - j.deadline).as_ns();
                    let initial_slack =
                        (j.deadline.as_ns() as i128 - j.t0.as_ns() as i128) as i64;
                    c.missed += 1;
                    c.miss_ticks += miss;
                    c.initial_slack_ticks += initial_slack;
                    for (total, s) in c.stages.iter_mut().zip(j.stages.iter()) {
                        *total += s;
                    }
                    out.packets.push(PacketSlack {
                        pkt,
                        class: j.class,
                        stamped: j.t0,
                        deadline: j.deadline,
                        delivered: e.at,
                        miss,
                        initial_slack,
                        stages: j.stages,
                    });
                }
            }
            EventKind::DeliveredCorrupt | EventKind::DroppedWire => {
                journey = None;
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Event;

    fn ev(at: u64, node: u32, pkt: u64, kind: EventKind) -> Event {
        Event {
            at: SimTime::from_ns(at),
            node,
            pkt,
            kind,
        }
    }

    /// The acceptance-criteria scenario: a hand-built two-switch journey
    /// whose per-stage spans are chosen by hand, asserting the exact
    /// tick-level identity `Σ stages - initial_slack == miss`.
    #[test]
    fn two_switch_journey_attributes_exactly() {
        let pkt = 42u64;
        let events = vec![
            // Host 0: stamped at t=0 with deadline 1000 → initial slack 1000.
            ev(0, 0, pkt, EventKind::Stamped { class: 1, len: 64, deadline: SimTime::from_ns(1000) }),
            // Pacing queue until eligible at 100.
            ev(100, 0, pkt, EventKind::Eligible),
            // Waited 150 for the host link.
            ev(250, 0, pkt, EventKind::Injected),
            // Serialisation + wire: 50.
            ev(300, 5, pkt, EventKind::HopEnqueue { vc: 0 }),
            // Switch 5: 100 in a deadline-ordered queue (vc_arbitration).
            ev(400, 5, pkt, EventKind::HopArbitrate { vc: 0, take_over: false, fifo: false }),
            // Crossbar transfer: 50 (transit).
            ev(450, 5, pkt, EventKind::HopXbarDone),
            // Output credit stall: 150.
            ev(600, 5, pkt, EventKind::HopTxStart),
            // Serialisation + wire to switch 6: 100.
            ev(700, 6, pkt, EventKind::HopEnqueue { vc: 0 }),
            // Switch 6: displaced, served via the take-over queue: 200.
            ev(900, 6, pkt, EventKind::HopArbitrate { vc: 0, take_over: true, fifo: false }),
            ev(950, 6, pkt, EventKind::HopXbarDone),
            // Output stall: 150.
            ev(1100, 6, pkt, EventKind::HopTxStart),
            // Final serialisation + wire + sink: 100. Delivered at 1200.
            ev(1200, 3, pkt, EventKind::Delivered),
        ];
        let a = attribute(&events);
        assert_eq!(a.incomplete, 0);
        assert_eq!(a.orphan_events, 0);
        assert_eq!(a.packets.len(), 1);
        let p = &a.packets[0];
        assert_eq!(p.miss, 200);
        assert_eq!(p.initial_slack, 1000);
        assert_eq!(p.stages[SlackStage::Pacing as usize], 100);
        assert_eq!(p.stages[SlackStage::Injection as usize], 150);
        assert_eq!(p.stages[SlackStage::VcArbitration as usize], 100);
        assert_eq!(p.stages[SlackStage::HolBlocking as usize], 0);
        assert_eq!(p.stages[SlackStage::TakeOver as usize], 200);
        assert_eq!(p.stages[SlackStage::LinkStall as usize], 300);
        assert_eq!(p.stages[SlackStage::Transit as usize], 350);
        // The exact identity, in ticks.
        assert_eq!(p.total(), 1200);
        assert_eq!(p.total() as i64 - p.initial_slack, p.miss as i64);
        // Rolled up per class.
        let c = &a.classes[1];
        assert_eq!((c.delivered, c.missed, c.miss_ticks), (1, 1, 200));
        assert_eq!(c.stage_total() as i64 - c.initial_slack_ticks, c.miss_ticks as i64);
    }

    #[test]
    fn on_time_delivery_counts_but_is_not_attributed() {
        let events = vec![
            ev(0, 0, 7, EventKind::Stamped { class: 0, len: 8, deadline: SimTime::from_ns(500) }),
            ev(10, 0, 7, EventKind::Injected),
            ev(20, 3, 7, EventKind::Delivered),
        ];
        // The journey never misses its deadline, so the only observable
        // is the delivered count — no PacketSlack entry is produced.
        let a = attribute(&events);
        assert_eq!(a.packets.len(), 0);
        assert_eq!(a.classes[0].delivered, 1);
        assert_eq!(a.classes[0].missed, 0);
    }

    #[test]
    fn fifo_wait_buckets_as_hol_and_takeover_wins_over_fifo() {
        let mk = |take_over: bool, fifo: bool| {
            vec![
                ev(0, 0, 1, EventKind::Stamped { class: 2, len: 8, deadline: SimTime::from_ns(5) }),
                ev(0, 0, 1, EventKind::Injected),
                ev(10, 5, 1, EventKind::HopEnqueue { vc: 1 }),
                ev(40, 5, 1, EventKind::HopArbitrate { vc: 1, take_over, fifo }),
                ev(40, 5, 1, EventKind::HopXbarDone),
                ev(40, 5, 1, EventKind::HopTxStart),
                ev(50, 3, 1, EventKind::Delivered),
            ]
        };
        let hol = attribute(&mk(false, true));
        assert_eq!(hol.packets[0].stages[SlackStage::HolBlocking as usize], 30);
        let to = attribute(&mk(true, true));
        assert_eq!(to.packets[0].stages[SlackStage::TakeOver as usize], 30);
        assert_eq!(to.packets[0].stages[SlackStage::HolBlocking as usize], 0);
    }

    #[test]
    fn truncated_journeys_are_reported_not_attributed() {
        let events = vec![
            // Grant with no Stamped in the trace: orphan.
            ev(40, 5, 9, EventKind::HopArbitrate { vc: 0, take_over: false, fifo: false }),
            // Stamped but the middle of the journey is missing: the
            // delivery is counted as incomplete, not attributed.
            ev(50, 0, 8, EventKind::Stamped { class: 0, len: 8, deadline: SimTime::from_ns(60) }),
            ev(99, 3, 8, EventKind::Delivered),
        ];
        let a = attribute(&events);
        assert_eq!(a.orphan_events, 1);
        assert_eq!(a.incomplete, 1);
        assert!(a.packets.is_empty());
    }

    #[test]
    fn dropped_and_corrupt_end_journeys_silently() {
        let events = vec![
            ev(0, 0, 1, EventKind::Stamped { class: 3, len: 8, deadline: SimTime::from_ns(5) }),
            ev(0, 0, 1, EventKind::Injected),
            ev(9, 0, 1, EventKind::DroppedWire),
            ev(0, 0, 2, EventKind::Stamped { class: 3, len: 8, deadline: SimTime::from_ns(5) }),
            ev(0, 0, 2, EventKind::Injected),
            ev(10, 5, 2, EventKind::HopEnqueue { vc: 1 }),
            ev(12, 5, 2, EventKind::HopArbitrate { vc: 1, take_over: false, fifo: true }),
            ev(12, 5, 2, EventKind::HopXbarDone),
            ev(12, 5, 2, EventKind::HopTxStart),
            ev(20, 3, 2, EventKind::DeliveredCorrupt),
        ];
        let a = attribute(&events);
        assert!(a.packets.is_empty());
        assert_eq!(a.incomplete, 0);
        // Corrupt/dropped packets never reach the delivered rollup.
        assert!(a.classes.len() <= 4);
        if let Some(c) = a.classes.get(3) {
            assert_eq!(c.delivered, 0);
        }
    }
}
