//! Flight recorder for the deadline-QoS simulator.
//!
//! `dqos-trace` is **always compiled and off by default**: every model in
//! the stack carries the (cheap) hooks, but unless a run opts in via
//! `TraceSettings::enabled` no event is materialised and no behaviour
//! changes. When enabled, per-packet lifecycle events (stamped → eligible
//! → injected → per-hop enqueue/arbitrate/crossbar/transmit → delivered or
//! dropped) plus periodic occupancy samples are captured into one
//! fixed-capacity buffer.
//!
//! # Canonical order
//!
//! Every recorded event is stamped with the global handling time and the
//! handling node. [`Tracer::finish`] stable-sorts the buffer on
//! `(at, node)`, so the trace lists each node's events in the order the
//! node handled them, nodes ascending within a tick. The buffer keeps the
//! **first** `capacity` events it sees (drop-newest), so a truncated
//! trace is a prefix of the full one in recording order. Dropped counts
//! are reported, never silent.
//!
//! On top of the raw stream sit the [`attr`] slack-attribution pass and
//! the [`export`] writers (JSONL, Chrome `trace_event`).

#![forbid(unsafe_code)]

use dqos_sim_core::SimTime;

pub mod attr;
pub mod export;

pub use attr::{attribute, Attribution, ClassSlack, PacketSlack, SlackStage, NUM_STAGES, STAGE_NAMES};

/// Trace configuration, carried inside the simulation config (plain data).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceSettings {
    /// Master switch. When false the recorder is inert and the run is
    /// bit-identical to an untraced one.
    pub enabled: bool,
    /// Maximum number of events kept. Overflow drops the newest events
    /// (counted).
    pub capacity: u32,
    /// Period of the per-node occupancy/credit sampler, in ns. Zero
    /// disables sampling while keeping lifecycle events.
    pub sample_period_ns: u64,
}

impl TraceSettings {
    /// Tracing off; the recorder never materialises an event.
    pub const OFF: TraceSettings = TraceSettings {
        enabled: false,
        capacity: 0,
        sample_period_ns: 0,
    };

    /// Tracing on with default capacity (1 Mi events) and a 100 µs sampler.
    pub fn on() -> TraceSettings {
        TraceSettings {
            enabled: true,
            capacity: 1 << 20,
            sample_period_ns: 100_000,
        }
    }

    /// Tracing on with an explicit event capacity.
    pub fn with_capacity(capacity: u32) -> TraceSettings {
        TraceSettings {
            capacity,
            ..TraceSettings::on()
        }
    }
}

impl Default for TraceSettings {
    fn default() -> Self {
        TraceSettings::OFF
    }
}

/// What happened to a packet (or node) at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Packet created and deadline-stamped at the source host. `deadline`
    /// is the global-clock deadline used for miss accounting.
    Stamped { class: u8, len: u32, deadline: SimTime },
    /// NIC promoted the packet from the pacing queue (its eligible time
    /// arrived). Absent when the packet was eligible at stamping time.
    Eligible,
    /// Host link serialisation started (packet left the NIC ready queue).
    Injected,
    /// Packet landed in a switch input queue on virtual channel `vc`.
    HopEnqueue { vc: u8 },
    /// Crossbar arbiter granted this packet. `take_over` means it rode the
    /// take-over queue (Advanced architectures); `fifo` means the input
    /// queue serves in FIFO order, so any wait was head-of-line blocking
    /// rather than deadline-ordered arbitration.
    HopArbitrate { vc: u8, take_over: bool, fifo: bool },
    /// Crossbar transfer finished; packet is in the output stage.
    HopXbarDone,
    /// Output link serialisation started (credit was available).
    HopTxStart,
    /// Delivered intact to the destination sink.
    Delivered,
    /// Delivered but corrupted in flight (fault injection).
    DeliveredCorrupt,
    /// Lost on a wire (fault injection); the journey ends here.
    DroppedWire,
    /// Periodic per-node sample: total queued packets and per-VC credit.
    Sample { queued: u32, credit0: u32, credit1: u32 },
}

/// One trace event: global handling time, handling node, packet id
/// (`(src << 40) | per-host counter`; 0 for node [`EventKind::Sample`]s,
/// whose `pkt` field is unused).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    pub at: SimTime,
    pub node: u32,
    pub pkt: u64,
    pub kind: EventKind,
}

/// Notes a node model (switch, NIC) leaves for the runtime while handling
/// one event. The runtime drains them immediately after each model call
/// and converts them into [`Event`]s stamped with the global handling
/// time, so models never need a clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelNote {
    /// NIC pacing queue released this packet (it became eligible).
    Promoted { pkt: u64 },
    /// Crossbar granted this packet; see [`EventKind::HopArbitrate`].
    XbarGrant { pkt: u64, vc: u8, take_over: bool, fifo: bool },
    /// Crossbar transfer of this packet completed.
    XbarDone { pkt: u64 },
}

/// The run's recorder: a bounded append-only buffer plus an attempt
/// counter. Cheap enough to sit in every run even when off.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    capacity: usize,
    sample_period: u64,
    attempts: u64,
    events: Vec<Event>,
}

impl Tracer {
    pub fn new(settings: TraceSettings) -> Tracer {
        let capacity = settings.capacity as usize;
        Tracer {
            on: settings.enabled,
            capacity,
            sample_period: settings.sample_period_ns,
            attempts: 0,
            // Reserve and pre-touch the ring up front (bounded) so the
            // hot record() path never reallocates and never stalls on a
            // first-touch page fault mid-run.
            events: if settings.enabled {
                let n = capacity.min(1 << 20);
                let mut v = vec![
                    Event {
                        at: SimTime::ZERO,
                        node: 0,
                        pkt: 0,
                        kind: EventKind::Eligible,
                    };
                    n
                ];
                v.clear();
                v
            } else {
                Vec::new()
            },
        }
    }

    /// A recorder that never records (the off-by-default path).
    pub fn disabled() -> Tracer {
        Tracer::new(TraceSettings::OFF)
    }

    /// Is recording enabled? Callers branch on this before building an
    /// [`Event`] so the disabled path costs one predictable branch.
    #[inline]
    pub fn on(&self) -> bool {
        self.on
    }

    /// Sampler period in ns; `None` when sampling is off (recorder
    /// disabled or period zero).
    #[inline]
    pub fn sample_period(&self) -> Option<u64> {
        if self.on && self.sample_period > 0 {
            Some(self.sample_period)
        } else {
            None
        }
    }

    /// Record one event. Past capacity the event is counted but dropped
    /// (drop-newest; see the module docs).
    #[inline]
    pub fn record(&mut self, ev: Event) {
        if !self.on {
            return;
        }
        self.attempts += 1;
        if self.events.len() < self.capacity {
            self.events.push(ev);
        }
    }

    /// Events recorded or dropped so far.
    pub fn attempts(&self) -> u64 {
        self.attempts
    }

    /// Events currently held.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The canonically ordered trace: the buffer stable-sorted on
    /// `(at, node)` (ties keep recording order).
    pub fn finish(self) -> Trace {
        let mut events = self.events;
        // A buffer that is already in order (a quiet run) skips the
        // sort, which would leave it unchanged anyway.
        if !events.windows(2).all(|w| (w[0].at, w[0].node) <= (w[1].at, w[1].node)) {
            events.sort_by_key(|e| (e.at, e.node));
        }
        let dropped = self.attempts - events.len() as u64;
        Trace { events, recorded: self.attempts, dropped }
    }
}

/// A canonically ordered trace (see [`Tracer::finish`]).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Trace {
    /// Events in global `(at, node, per-node order)` order, truncated to
    /// the configured capacity.
    pub events: Vec<Event>,
    /// Total record attempts.
    pub recorded: u64,
    /// Attempts that did not survive capacity truncation.
    pub dropped: u64,
}

impl Trace {
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// Packets in flight (injected but not yet delivered or dropped) over
/// time, derived post-hoc from the event stream.
///
/// Returns `(time, in_flight)` change points; the count holds until the
/// next entry.
pub fn in_flight_series(events: &[Event]) -> Vec<(SimTime, u32)> {
    let mut out: Vec<(SimTime, u32)> = Vec::new();
    let mut live: u32 = 0;
    for e in events {
        let delta: i32 = match e.kind {
            EventKind::Injected => 1,
            EventKind::Delivered | EventKind::DeliveredCorrupt | EventKind::DroppedWire => -1,
            _ => 0,
        };
        if delta == 0 {
            continue;
        }
        // A truncated trace can see terminals for pre-trace injections.
        live = if delta > 0 { live + 1 } else { live.saturating_sub(1) };
        match out.last_mut() {
            Some(last) if last.0 == e.at => last.1 = live,
            _ => out.push((e.at, live)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at: u64, node: u32, pkt: u64, kind: EventKind) -> Event {
        Event {
            at: SimTime::from_ns(at),
            node,
            pkt,
            kind,
        }
    }

    fn on(cap: u32) -> TraceSettings {
        TraceSettings::with_capacity(cap)
    }

    #[test]
    fn disabled_recorder_is_inert() {
        let mut t = Tracer::disabled();
        assert!(!t.on());
        assert_eq!(t.sample_period(), None);
        t.record(ev(1, 0, 0, EventKind::Eligible));
        assert_eq!(t.attempts(), 0);
        assert!(t.is_empty());
    }

    #[test]
    fn capacity_drops_newest_and_counts() {
        let mut t = Tracer::new(on(2));
        for i in 0..5 {
            t.record(ev(i, 0, i, EventKind::Eligible));
        }
        assert_eq!(t.attempts(), 5);
        assert_eq!(t.len(), 2);
        assert_eq!(t.events[1].pkt, 1);
        let trace = t.finish();
        assert_eq!(trace.recorded, 5);
        assert_eq!(trace.dropped, 3);
        assert_eq!(trace.events.len(), 2);
    }

    #[test]
    fn zero_sample_period_disables_sampling_only() {
        let mut s = TraceSettings::on();
        s.sample_period_ns = 0;
        let t = Tracer::new(s);
        assert!(t.on());
        assert_eq!(t.sample_period(), None);
    }

    /// `finish` orders by `(at, node)` and keeps each node's own order.
    #[test]
    fn finish_sorts_on_time_then_node_stably() {
        let mut t = Tracer::new(on(16));
        for e in [
            ev(10, 2, 300, EventKind::Eligible),
            ev(10, 1, 200, EventKind::Eligible),
            ev(10, 1, 201, EventKind::Injected),
            ev(20, 0, 101, EventKind::Injected),
            ev(10, 0, 100, EventKind::Eligible),
        ] {
            t.record(e);
        }
        let pkts: Vec<u64> = t.finish().events.iter().map(|e| e.pkt).collect();
        assert_eq!(pkts, vec![100, 200, 201, 300, 101]);
    }

    #[test]
    fn in_flight_series_tracks_injections_and_terminals() {
        let events = vec![
            ev(5, 0, 1, EventKind::Injected),
            ev(5, 1, 2, EventKind::Injected),
            ev(9, 3, 1, EventKind::Delivered),
            ev(9, 3, 2, EventKind::DroppedWire),
            ev(12, 4, 9, EventKind::Delivered), // injected before the trace began
        ];
        let series = in_flight_series(&events);
        assert_eq!(
            series,
            vec![
                (SimTime::from_ns(5), 2),
                (SimTime::from_ns(9), 0),
                (SimTime::from_ns(12), 0),
            ]
        );
    }
}
