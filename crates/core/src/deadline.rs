//! The Virtual-Clock deadline calculus of §3.1.
//!
//! Deadlines are computed **once**, at the source host, and never
//! recomputed by switches (single-chip switches have no room for flow
//! state, and recomputation would add delay). Three stamping modes cover
//! the paper's traffic classes:
//!
//! * [`DeadlineMode::AvgBandwidth`] — the general rule:
//!   `D(Pᵢ) = max(D(Pᵢ₋₁), T_now) + L(Pᵢ)/BW_avg`.
//! * [`DeadlineMode::FullLink`] — control traffic: no admission, the
//!   "reserved" bandwidth is the whole link, so deadlines are as tight as
//!   physically possible and control gets maximum priority.
//! * [`DeadlineMode::FrameSpread`] — multimedia: the user fixes a target
//!   latency per application frame (10 ms in the paper) and each of the
//!   frame's `Parts(Fᵢ)` packets advances the virtual clock by
//!   `target / Parts(Fᵢ)`, so every frame lands close to the target
//!   regardless of its size, with a smooth packet distribution.
//!
//! Eligible time (§3.1/§3.2) is optional smoothing: a packet may not
//! enter the network before `deadline − Δ` (Δ = 20 µs works well in the
//! paper's tests); it removes the injection bursts that would otherwise
//! cause order errors downstream.

use dqos_sim_core::{Bandwidth, SimDuration, SimTime};

/// How a flow's packet deadlines advance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeadlineMode {
    /// General flows: virtual clock advances by `len / bw` per packet.
    AvgBandwidth(
        /// The reserved (or, for aggregated best-effort records, the
        /// *weighting*) bandwidth.
        Bandwidth,
    ),
    /// Control traffic: virtual clock advances by `len / link_bw`.
    FullLink(
        /// The link bandwidth.
        Bandwidth,
    ),
    /// Multimedia: each packet of a frame advances the clock by
    /// `target / parts`.
    FrameSpread {
        /// Desired per-frame latency (10 ms in the paper).
        target: SimDuration,
    },
}

impl DeadlineMode {
    /// The virtual-clock increment contributed by one packet of length
    /// `len` belonging to a message of `parts` packets.
    #[inline]
    pub fn increment(&self, len: u32, parts: u32) -> SimDuration {
        match *self {
            DeadlineMode::AvgBandwidth(bw) | DeadlineMode::FullLink(bw) => {
                bw.tx_time(len as u64)
            }
            DeadlineMode::FrameSpread { target } => {
                debug_assert!(parts > 0);
                SimDuration::from_ns(target.as_ns() / parts as u64)
            }
        }
    }

    /// The deadline of the next packet of a flow whose previous packet
    /// was due at `last`: `D(Pᵢ) = max(D(Pᵢ₋₁), T_now) + increment`.
    /// [`Stamper`] keeps `last` for a flow; a flow record that keeps
    /// only its last deadline stamps through this directly.
    #[inline]
    pub fn next_deadline(&self, last: SimTime, now: SimTime, len: u32, parts: u32) -> SimTime {
        last.max(now) + self.increment(len, parts)
    }
}

/// Per-flow stamping state: the deadline of the previous packet.
///
/// This is the *only* flow state the proposal needs anywhere, and it
/// lives at the source host.
///
/// ```
/// use dqos_core::{DeadlineMode, Stamper};
/// use dqos_sim_core::{Bandwidth, SimTime};
///
/// // A flow with 1 Gb/s reserved: the virtual clock advances 8 ns/byte.
/// let mut stamper = Stamper::new(DeadlineMode::AvgBandwidth(Bandwidth::gbps(1)));
/// let first = stamper.stamp(SimTime::from_us(10), 1000, 1);
/// assert_eq!(first.deadline, SimTime::from_ns(10_000 + 8_000));
/// // Back-to-back packets advance from the previous deadline, not from
/// // real time — this is Virtual Clock.
/// let second = stamper.stamp(SimTime::from_us(10), 1000, 1);
/// assert_eq!(second.deadline, SimTime::from_ns(10_000 + 16_000));
/// ```
#[derive(Debug, Clone)]
pub struct Stamper {
    mode: DeadlineMode,
    last_deadline: SimTime,
    /// How far before its deadline a packet becomes eligible, if this
    /// flow uses eligible-time smoothing.
    eligible_lead: Option<SimDuration>,
}

/// The deadline (and optional eligible time) assigned to one packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StampedTimes {
    /// The packet's deadline tag.
    pub deadline: SimTime,
    /// The earliest injection time, if smoothing is on for this flow.
    pub eligible: Option<SimTime>,
}

impl Stamper {
    /// A stamper with no eligible-time smoothing.
    pub fn new(mode: DeadlineMode) -> Self {
        Stamper { mode, last_deadline: SimTime::ZERO, eligible_lead: None }
    }

    /// A stamper that also assigns eligible times `lead` before each
    /// deadline (the paper uses 20 µs, typically for multimedia).
    pub fn with_eligible(mode: DeadlineMode, lead: SimDuration) -> Self {
        Stamper { mode, last_deadline: SimTime::ZERO, eligible_lead: Some(lead) }
    }

    /// The stamping mode.
    pub fn mode(&self) -> DeadlineMode {
        self.mode
    }

    /// The deadline assigned to the most recent packet.
    pub fn last_deadline(&self) -> SimTime {
        self.last_deadline
    }

    /// Stamp one packet of length `len`, part of a `parts`-packet message,
    /// handed to the NIC at local time `now`.
    ///
    /// Implements `D(Pᵢ) = max(D(Pᵢ₋₁), T_now) + increment`.
    pub fn stamp(&mut self, now: SimTime, len: u32, parts: u32) -> StampedTimes {
        let deadline = self.mode.next_deadline(self.last_deadline, now, len, parts);
        self.last_deadline = deadline;
        let eligible = self
            .eligible_lead
            .map(|lead| deadline.saturating_sub(lead).max(now));
        StampedTimes { deadline, eligible }
    }

    /// Stamp every packet of a message whose parts have the given sizes.
    pub fn stamp_message(&mut self, now: SimTime, part_sizes: &[u32]) -> Vec<StampedTimes> {
        let mut out = Vec::with_capacity(part_sizes.len());
        self.stamp_message_into(now, part_sizes, &mut out);
        out
    }

    /// [`Stamper::stamp_message`], appending to `out` (a caller's
    /// reusable buffer) instead of allocating.
    pub fn stamp_message_into(
        &mut self,
        now: SimTime,
        part_sizes: &[u32],
        out: &mut Vec<StampedTimes>,
    ) {
        let parts = part_sizes.len() as u32;
        out.extend(part_sizes.iter().map(|&len| self.stamp(now, len, parts)));
    }
}

/// Split an application message of `bytes` into MTU-sized packet lengths.
///
/// E.g. the paper's example: an 80 KiB frame with a 2 KiB MTU becomes 40
/// packets. The final packet carries the remainder.
pub fn segment_message(bytes: u64, mtu: u32) -> Vec<u32> {
    let mut parts = Vec::new();
    segment_message_into(bytes, mtu, &mut parts);
    parts
}

/// [`segment_message`], appending the lengths to `out` (a caller's
/// reusable buffer) instead of allocating.
pub fn segment_message_into(bytes: u64, mtu: u32, out: &mut Vec<u32>) {
    assert!(mtu > 0, "MTU must be positive");
    assert!(bytes > 0, "cannot segment an empty message");
    let full = (bytes / mtu as u64) as usize;
    let rem = (bytes % mtu as u64) as u32;
    out.reserve(full + usize::from(rem > 0));
    out.extend(std::iter::repeat_n(mtu, full));
    if rem > 0 {
        out.push(rem);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LINK: Bandwidth = Bandwidth::gbps(8); // 1 byte/ns

    #[test]
    fn avg_bandwidth_rule_matches_paper_formula() {
        // Reserved 1 Gb/s = 8 ns per byte.
        let mut s = Stamper::new(DeadlineMode::AvgBandwidth(Bandwidth::gbps(1)));
        // First packet at t=1000, 100 bytes: D = max(0, 1000) + 800.
        let a = s.stamp(SimTime::from_ns(1000), 100, 1);
        assert_eq!(a.deadline, SimTime::from_ns(1800));
        // Second packet arrives *before* the previous deadline: the
        // virtual clock, not real time, is the base.
        let b = s.stamp(SimTime::from_ns(1100), 100, 1);
        assert_eq!(b.deadline, SimTime::from_ns(2600));
        // Third packet arrives after an idle period: real time is the base.
        let c = s.stamp(SimTime::from_ns(10_000), 50, 1);
        assert_eq!(c.deadline, SimTime::from_ns(10_400));
    }

    #[test]
    fn full_link_gives_tightest_deadlines() {
        let mut s = Stamper::new(DeadlineMode::FullLink(LINK));
        let t = s.stamp(SimTime::from_us(5), 2048, 1);
        // 2048 bytes at 1 byte/ns.
        assert_eq!(t.deadline, SimTime::from_ns(5_000 + 2_048));
    }

    #[test]
    fn frame_spread_matches_paper_example() {
        // Paper: 80 KiB frame, 2 KiB MTU -> 40 packets; target 10 ms ->
        // each packet advances the clock by 250 us; the last packet's
        // deadline is exactly 10 ms after the frame arrived (clock idle).
        let target = SimDuration::from_ms(10);
        let mut s = Stamper::new(DeadlineMode::FrameSpread { target });
        let parts = segment_message(80 * 1024, 2048);
        assert_eq!(parts.len(), 40);
        let stamps = s.stamp_message(SimTime::ZERO, &parts);
        assert_eq!(stamps[0].deadline, SimTime::from_us(250));
        assert_eq!(stamps[39].deadline, SimTime::from_ms(10));
    }

    #[test]
    fn frame_spread_latency_independent_of_frame_size() {
        let target = SimDuration::from_ms(10);
        for size_kib in [1u64, 8, 40, 120] {
            let mut s = Stamper::new(DeadlineMode::FrameSpread { target });
            let parts = segment_message(size_kib * 1024, 2048);
            let stamps = s.stamp_message(SimTime::from_ms(3), &parts);
            let last = stamps.last().unwrap().deadline;
            // Whole frame due within target of arrival, +- rounding.
            let err = last.as_ns() as i64 - (SimTime::from_ms(13)).as_ns() as i64;
            assert!(err.abs() <= parts.len() as i64, "frame {size_kib}KiB err {err}ns");
        }
    }

    #[test]
    fn eligible_time_is_deadline_minus_lead() {
        let mut s = Stamper::with_eligible(
            DeadlineMode::FrameSpread { target: SimDuration::from_ms(10) },
            SimDuration::from_us(20),
        );
        let t = s.stamp(SimTime::from_ms(1), 2048, 4);
        assert_eq!(t.deadline, SimTime::from_ns(1_000_000 + 2_500_000));
        assert_eq!(
            t.eligible,
            Some(SimTime::from_ns(1_000_000 + 2_500_000 - 20_000))
        );
    }

    #[test]
    fn eligible_never_precedes_now() {
        // A tight deadline minus the lead could land before "now"; the
        // packet must still be immediately eligible, not scheduled into
        // the past.
        let mut s = Stamper::with_eligible(
            DeadlineMode::FullLink(LINK),
            SimDuration::from_us(20),
        );
        let now = SimTime::from_us(100);
        let t = s.stamp(now, 256, 1);
        assert_eq!(t.eligible, Some(now));
    }

    #[test]
    fn segmentation() {
        assert_eq!(segment_message(2048, 2048), vec![2048]);
        assert_eq!(segment_message(2049, 2048), vec![2048, 1]);
        assert_eq!(segment_message(100, 2048), vec![100]);
        assert_eq!(segment_message(81920, 2048).len(), 40);
        let parts = segment_message(5000, 2048);
        assert_eq!(parts, vec![2048, 2048, 904]);
        assert_eq!(parts.iter().map(|&p| p as u64).sum::<u64>(), 5000);
    }

    /// Dependency-free ports of the property suite, driven by the
    /// in-house RNG so they run in the offline tier-1 build.
    mod randomized {
        use super::*;
        use dqos_sim_core::SimRng;

        /// Hypothesis (1) of the appendix: deadlines within a flow
        /// strictly increase, whatever the arrival pattern.
        #[test]
        fn deadlines_strictly_increase() {
            let mut rng = SimRng::new(0xDEAD);
            for _ in 0..150 {
                let bw_mb = rng.range_u64(1, 999);
                let mut s =
                    Stamper::new(DeadlineMode::AvgBandwidth(Bandwidth::mbytes_per_sec(bw_mb)));
                let mut t = 0;
                let mut last = SimTime::ZERO;
                for _ in 0..1 + rng.index(200) {
                    t += rng.range_u64(0, 999_999);
                    let len = rng.range_u64(1, 99_999) as u32;
                    let stamp = s.stamp(SimTime::from_ns(t), len, 1);
                    assert!(stamp.deadline > last, "deadline did not increase");
                    last = stamp.deadline;
                }
            }
        }

        /// Segmentation conserves bytes and respects the MTU.
        #[test]
        fn segmentation_conserves() {
            let mut rng = SimRng::new(0x5E63);
            for _ in 0..2_000 {
                let bytes = rng.range_u64(1, 999_999);
                let mtu = rng.range_u64(1, 9_999) as u32;
                let parts = segment_message(bytes, mtu);
                assert_eq!(parts.iter().map(|&p| p as u64).sum::<u64>(), bytes);
                assert!(parts.iter().all(|&p| p > 0 && p <= mtu));
                // Only the last part may be short.
                for &p in &parts[..parts.len() - 1] {
                    assert_eq!(p, mtu);
                }
            }
        }

        /// Deadline of packet i is always >= now + its own increment
        /// (a packet can never be due before it could be sent).
        #[test]
        fn deadline_not_in_past() {
            let mut rng = SimRng::new(0xD11E);
            for _ in 0..2_000 {
                let now = rng.range_u64(0, 9_999_999);
                let len = rng.range_u64(1, 99_999) as u32;
                let bw = Bandwidth::gbps(8);
                let mut s = Stamper::new(DeadlineMode::AvgBandwidth(bw));
                let t = s.stamp(SimTime::from_ns(now), len, 1);
                assert!(t.deadline >= SimTime::from_ns(now) + bw.tx_time(len as u64));
            }
        }
    }

    #[cfg(feature = "proptest")]
    mod prop {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Hypothesis (1) of the appendix: deadlines within a flow
            /// strictly increase, whatever the arrival pattern.
            #[test]
            fn prop_deadlines_strictly_increase(
                arrivals in proptest::collection::vec((0u64..1_000_000, 1u32..100_000), 1..200),
                bw_mb in 1u64..1000,
            ) {
                let mut s = Stamper::new(DeadlineMode::AvgBandwidth(Bandwidth::mbytes_per_sec(bw_mb)));
                let mut t = 0;
                let mut last = SimTime::ZERO;
                for (gap, len) in arrivals {
                    t += gap;
                    let stamp = s.stamp(SimTime::from_ns(t), len, 1);
                    prop_assert!(stamp.deadline > last, "deadline did not increase");
                    last = stamp.deadline;
                }
            }

            /// Segmentation conserves bytes and respects the MTU.
            #[test]
            fn prop_segmentation_conserves(bytes in 1u64..1_000_000, mtu in 1u32..10_000) {
                let parts = segment_message(bytes, mtu);
                prop_assert_eq!(parts.iter().map(|&p| p as u64).sum::<u64>(), bytes);
                prop_assert!(parts.iter().all(|&p| p > 0 && p <= mtu));
                // Only the last part may be short.
                for &p in &parts[..parts.len() - 1] {
                    prop_assert_eq!(p, mtu);
                }
            }

            /// Deadline of packet i is always >= now + its own increment
            /// (a packet can never be due before it could be sent).
            #[test]
            fn prop_deadline_not_in_past(now in 0u64..10_000_000, len in 1u32..100_000) {
                let bw = Bandwidth::gbps(8);
                let mut s = Stamper::new(DeadlineMode::AvgBandwidth(bw));
                let t = s.stamp(SimTime::from_ns(now), len, 1);
                prop_assert!(t.deadline >= SimTime::from_ns(now) + bw.tx_time(len as u64));
            }
        }
    }
}
