//! The generator interface.

use dqos_core::TrafficClass;
use dqos_sim_core::{SimRng, SimTime};
use dqos_topology::HostId;

/// One application message (frame / control message / transfer) handed to
/// the source host's NIC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppMessage {
    /// Destination host.
    pub dst: HostId,
    /// Traffic class.
    pub class: TrafficClass,
    /// Message length in bytes (segmented into MTU packets by the host).
    pub bytes: u64,
    /// Source-local stream index for per-stream flows (video); `None`
    /// for classes using aggregated flow records.
    pub stream: Option<u32>,
}

/// A pull-based traffic source.
///
/// The simulator calls [`TrafficSource::first_arrival`] once to learn the
/// initial event time, then [`TrafficSource::emit`] at each firing, which
/// returns the message plus the absolute time of the next firing.
pub trait TrafficSource {
    /// The class this source produces.
    fn class(&self) -> TrafficClass;

    /// Initial arrival time (sources randomise their phase so hosts do
    /// not beat in lockstep).
    fn first_arrival(&mut self, rng: &mut SimRng) -> SimTime;

    /// Produce the message due now and schedule the next.
    fn emit(&mut self, now: SimTime, rng: &mut SimRng) -> (AppMessage, SimTime);

    /// The fixed destination, for sources that are admitted point-to-point
    /// flows (video streams). `None` for sources that draw destinations
    /// per message/burst.
    fn fixed_dst(&self) -> Option<HostId> {
        None
    }
}

/// A traffic source bound to its own private RNG stream.
///
/// Each source draws from its own forked stream rather than from one
/// shared host RNG, so a firing's randomness is a pure function of
/// *which* source fired and how often it has fired, independent of how
/// its events interleave with every other event in the run.
pub struct SourceNode {
    /// The generator.
    pub source: Box<dyn TrafficSource>,
    /// Its private random stream.
    pub rng: SimRng,
}

impl SourceNode {
    /// Wrap `source` with its own random stream.
    pub fn new(source: Box<dyn TrafficSource>, rng: SimRng) -> Self {
        SourceNode { source, rng }
    }

    /// Initial firing time (see [`TrafficSource::first_arrival`]).
    pub fn first_arrival(&mut self) -> SimTime {
        self.source.first_arrival(&mut self.rng)
    }

    /// A firing: produce the message due at `now` and the absolute time
    /// of the next firing.
    pub fn fire(&mut self, now: SimTime) -> (AppMessage, SimTime) {
        self.source.emit(now, &mut self.rng)
    }
}

/// Draw a uniformly random destination different from `src`.
pub fn random_dst(src: HostId, n_hosts: u32, rng: &mut SimRng) -> HostId {
    debug_assert!(n_hosts >= 2, "need at least two hosts");
    let mut d = rng.range_u64(0, n_hosts as u64 - 2) as u32;
    if d >= src.0 {
        d += 1;
    }
    HostId(d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_dst_never_self_and_covers_all() {
        let mut rng = SimRng::new(1);
        let src = HostId(3);
        let mut seen = [false; 8];
        for _ in 0..10_000 {
            let d = random_dst(src, 8, &mut rng);
            assert_ne!(d, src);
            assert!(d.0 < 8);
            seen[d.idx()] = true;
        }
        assert_eq!(seen.iter().filter(|&&s| s).count(), 7);
    }

    #[test]
    fn random_dst_two_hosts() {
        let mut rng = SimRng::new(2);
        for _ in 0..100 {
            assert_eq!(random_dst(HostId(0), 2, &mut rng), HostId(1));
            assert_eq!(random_dst(HostId(1), 2, &mut rng), HostId(0));
        }
    }
}
