//! Window-gated statistics collection.

use dqos_core::{FlowId, TrafficClass, NUM_CLASSES};
use dqos_sim_core::SimTime;
use dqos_stats::{ClassStats, JitterTracker, Report};

/// One flow's jitter state: [`JitterTracker::record`]'s arithmetic, in
/// the same f64 operations and order, kept in 40 bytes (a tracker is 80
/// — its `u128` |Δ| sum aligns it to 16 — and a paper fabric has
/// ≈129 k flow ids). Vacant while `n == 0`; the consecutive-|Δ| count
/// is `n − 1`. The tracker itself is built only at
/// [`Collector::finish`].
#[derive(Debug, Clone, Copy, Default)]
struct JitterSlot {
    /// Latest latency, ns.
    last: u64,
    /// Sum of |Δ| between consecutive latencies, ns.
    abs_diff_sum: u64,
    /// Welford running mean and sum of squared deviations.
    mean: f64,
    m2: f64,
    /// Samples recorded.
    n: u32,
    /// `TrafficClass::idx()` of the flow.
    class: u8,
}

// A widened slot must fail the build (see `JitterSlot`).
const _: () = assert!(std::mem::size_of::<JitterSlot>() <= 40);

impl JitterSlot {
    /// [`JitterTracker::record`] for a flow of `class`.
    #[inline]
    fn record(&mut self, class: TrafficClass, latency_ns: u64) {
        if self.n == 0 {
            self.class = class.idx() as u8;
        } else {
            // A u64 sum of |Δ| overflows only after ~2³² samples of
            // ~4 s latency swings; refuse rather than wrap.
            let (sum, overflow) =
                self.abs_diff_sum.overflowing_add(self.last.abs_diff(latency_ns));
            assert!(!overflow, "per-flow jitter |Δ| sum overflowed u64");
            self.abs_diff_sum = sum;
        }
        self.last = latency_ns;
        assert!(self.n < u32::MAX, "per-flow jitter sample count overflowed u32");
        self.n += 1;
        let x = latency_ns as f64;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
    }

    /// The flow's class and tracker, if it recorded anything.
    fn tracker(&self) -> Option<(TrafficClass, JitterTracker)> {
        (self.n > 0).then(|| {
            let n = self.n as u64;
            let t = JitterTracker::from_parts(
                Some(self.last),
                self.abs_diff_sum as u128,
                n - 1,
                n,
                self.mean,
                self.m2,
            );
            (TrafficClass::from_idx(self.class as usize), t)
        })
    }
}

/// Flow ids per page of jitter slots.
const JITTER_PAGE: usize = 512;

/// Collects deliveries and offered traffic inside the measurement window
/// and emits a [`Report`].
pub struct Collector {
    start: SimTime,
    end: SimTime,
    classes: [ClassStats; NUM_CLASSES],
    /// Per-flow message jitter, merged into class aggregates at the end,
    /// in pages of [`JITTER_PAGE`] flow ids. A page exists once one of
    /// its flows completes a message in the window: a paper fabric has
    /// ≈129 k flow ids, so a dense vector would double its way to
    /// ≈17 MB (plus the copy while it grows) although a short window
    /// completes messages on a fraction of them.
    flow_jitter: Vec<Option<Box<[JitterSlot]>>>,
}

impl Collector {
    /// A collector for the window `[start, end)`.
    pub fn new(start: SimTime, end: SimTime) -> Self {
        Collector {
            start,
            end,
            classes: TrafficClass::ALL.map(|c| ClassStats::new(c.name())),
            flow_jitter: Vec::new(),
        }
    }

    #[inline]
    fn in_window(&self, t: SimTime) -> bool {
        t >= self.start && t < self.end
    }

    /// A generator handed a message to a NIC at `t`.
    #[inline]
    pub fn offered(&mut self, class: TrafficClass, bytes: u64, t: SimTime) {
        if self.in_window(t) {
            let c = &mut self.classes[class.idx()];
            // Offered accounting is at message granularity.
            c.offered.record_packet(bytes.min(u32::MAX as u64) as u32);
        }
    }

    /// A packet was delivered at `t`; `created` is when its message was
    /// handed to the source NIC.
    #[inline]
    pub fn packet_delivered(
        &mut self,
        class: TrafficClass,
        len: u32,
        created: SimTime,
        t: SimTime,
    ) {
        if self.in_window(t) {
            let c = &mut self.classes[class.idx()];
            c.delivered.record_packet(len);
            c.packet_latency.record(t.since(created).as_ns());
        }
    }

    /// A whole message/frame completed at `t`.
    #[inline]
    pub fn message_completed(
        &mut self,
        class: TrafficClass,
        flow: FlowId,
        created: SimTime,
        t: SimTime,
    ) {
        if !self.in_window(t) {
            return;
        }
        let lat = t.since(created).as_ns();
        let c = &mut self.classes[class.idx()];
        c.message_latency.record(lat);
        c.delivered.record_message();
        let (page, i) = (flow.idx() / JITTER_PAGE, flow.idx() % JITTER_PAGE);
        if page >= self.flow_jitter.len() {
            self.flow_jitter.resize_with(page + 1, || None);
        }
        self.flow_jitter[page]
            .get_or_insert_with(|| vec![JitterSlot::default(); JITTER_PAGE].into_boxed_slice())[i]
            .record(class, lat);
    }

    /// Fold another collector (a parallel partition's) into this one.
    ///
    /// Class histograms and meters are integer accumulators, so the sum
    /// over partitions equals the serial totals exactly. Per-flow jitter
    /// slots keep their place (flow ids are global): each flow is
    /// terminated by exactly one host, hence one partition, so slots
    /// never collide (a collision panics) and the merged pages hold
    /// exactly the serial slots — [`Collector::finish`] then folds them
    /// in the same flow-id order, reproducing the serial report bit for
    /// bit.
    pub fn merge(&mut self, other: Collector) {
        debug_assert!(self.start == other.start && self.end == other.end, "same window");
        for (a, b) in self.classes.iter_mut().zip(&other.classes) {
            a.merge(b);
        }
        if self.flow_jitter.len() < other.flow_jitter.len() {
            self.flow_jitter.resize_with(other.flow_jitter.len(), || None);
        }
        for (mine, theirs) in self.flow_jitter.iter_mut().zip(other.flow_jitter) {
            let Some(theirs) = theirs else { continue };
            let Some(mine) = mine else {
                *mine = Some(theirs);
                continue;
            };
            for (slot, entry) in mine.iter_mut().zip(theirs.iter()) {
                if entry.n > 0 {
                    assert_eq!(slot.n, 0, "a flow completed messages in two partitions");
                    *slot = *entry;
                }
            }
        }
    }

    /// Finish: merge per-flow jitter into class aggregates and render the
    /// report.
    pub fn finish(mut self, architecture: &str, load: f64) -> Report {
        for page in self.flow_jitter.iter().flatten() {
            for (class, tracker) in page.iter().filter_map(JitterSlot::tracker) {
                self.classes[class.idx()].jitter.merge(&tracker);
            }
        }
        Report {
            architecture: architecture.to_string(),
            load,
            window_start: self.start,
            window_end: self.end,
            classes: self.classes.to_vec(),
            // Fault and trace accounting live in the event loop, which
            // overwrites these after `finish` when active.
            faults: None,
            trace: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collector() -> Collector {
        Collector::new(SimTime::from_ms(1), SimTime::from_ms(2))
    }

    #[test]
    fn gates_on_window() {
        let mut c = collector();
        // Before, inside, at end (exclusive), after.
        c.packet_delivered(TrafficClass::Control, 100, SimTime::ZERO, SimTime::from_us(500));
        c.packet_delivered(TrafficClass::Control, 100, SimTime::ZERO, SimTime::from_us(1500));
        c.packet_delivered(TrafficClass::Control, 100, SimTime::ZERO, SimTime::from_ms(2));
        let r = c.finish("x", 1.0);
        assert_eq!(r.class("Control").unwrap().delivered.packets(), 1);
    }

    #[test]
    fn latency_is_creation_to_delivery() {
        let mut c = collector();
        c.message_completed(
            TrafficClass::Multimedia,
            FlowId(0),
            SimTime::from_us(1000),
            SimTime::from_us(1400),
        );
        let r = c.finish("x", 1.0);
        let mm = r.class("Multimedia").unwrap();
        assert_eq!(mm.message_latency.count(), 1);
        assert_eq!(mm.message_latency.mean(), 400_000.0);
    }

    #[test]
    fn jitter_is_per_flow() {
        let mut c = collector();
        // Two flows with constant (but different) latencies: class-level
        // per-flow jitter must be zero.
        for i in 0..10 {
            let t = SimTime::from_us(1100 + i * 10);
            c.message_completed(TrafficClass::Multimedia, FlowId(0), t.saturating_sub(dqos_sim_core::SimDuration::from_us(100)), t);
            c.message_completed(TrafficClass::Multimedia, FlowId(1), t.saturating_sub(dqos_sim_core::SimDuration::from_us(500)), t);
        }
        let r = c.finish("x", 1.0);
        let mm = r.class("Multimedia").unwrap();
        assert_eq!(mm.jitter.mean_abs_delta(), 0.0, "cross-flow deltas must not count");
        assert_eq!(mm.jitter.count(), 20);
    }

    /// Flows spread over several jitter pages, split between two
    /// collectors the way partitions split them (each flow in exactly
    /// one), merge to exactly the report one collector makes.
    #[test]
    fn paged_jitter_merges_to_the_single_collector_report() {
        let flows = [0u32, 1, 511, 512, 1023, 5_000, 129_000];
        let (mut one, mut a, mut b) = (collector(), collector(), collector());
        let mut rng = dqos_sim_core::SimRng::new(0x717);
        for k in 0..400u64 {
            let f = flows[rng.index(flows.len())];
            let class = TrafficClass::ALL[f as usize % NUM_CLASSES];
            let t = SimTime::from_us(1000 + k);
            let created = SimTime::from_ns(rng.range_u64(0, 900_000));
            one.message_completed(class, FlowId(f), created, t);
            let part = if f % 3 == 0 { &mut a } else { &mut b };
            part.message_completed(class, FlowId(f), created, t);
        }
        b.merge(a);
        assert_eq!(b.finish("x", 1.0).to_json(), one.finish("x", 1.0).to_json());
    }

    /// The compact slot records with the tracker's arithmetic: over
    /// seeded latency streams (short and long, narrow and wide swings)
    /// the tracker it builds matches one fed the same stream, bit for
    /// bit on mean and m2 (the JSON form prints floats round-trip) and
    /// on every derived figure.
    #[test]
    fn compact_slot_matches_the_tracker_bitwise() {
        let mut rng = dqos_sim_core::SimRng::new(0x5107);
        for stream in 0..200u64 {
            let class = TrafficClass::ALL[stream as usize % NUM_CLASSES];
            let n = rng.range_u64(1, 600);
            let base = rng.range_u64(0, 40_000_000);
            let swing = [1_000, 250_000, 30_000_000][stream as usize % 3];
            let mut slot = JitterSlot::default();
            let mut reference = JitterTracker::new();
            for _ in 0..n {
                let lat = base + rng.range_u64(0, swing);
                slot.record(class, lat);
                reference.record(lat);
            }
            let (c, built) = slot.tracker().expect("a recorded slot yields a tracker");
            assert_eq!(c, class);
            assert_eq!(
                built.to_json().to_string_compact(),
                reference.to_json().to_string_compact(),
                "stream {stream}"
            );
            assert_eq!(built.std_dev().to_bits(), reference.std_dev().to_bits());
            assert_eq!(built.mean_abs_delta().to_bits(), reference.mean_abs_delta().to_bits());
        }
        assert!(JitterSlot::default().tracker().is_none(), "a vacant slot yields nothing");
    }

    #[test]
    fn offered_counts_messages() {
        let mut c = collector();
        c.offered(TrafficClass::Background, 5000, SimTime::from_us(1500));
        c.offered(TrafficClass::Background, 5000, SimTime::from_us(100)); // outside
        let r = c.finish("x", 0.5);
        assert_eq!(r.class("Background").unwrap().offered.bytes(), 5000);
        assert_eq!(r.load, 0.5);
    }
}
