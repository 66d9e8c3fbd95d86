//! Synthetic MPEG-4 video streams.
//!
//! The paper transmits "actual MPEG video sequences" at 3 Mbyte/s, one
//! frame every 40 ms, frame sizes 1–120 KiB (Table 1, §3.1). We lack the
//! trace files, so we synthesise sequences with the structure that
//! matters to the experiments:
//!
//! * fixed 40 ms frame cadence with a per-stream random phase,
//! * a 12-frame group of pictures (GoP) `I B B P B B P B B P B B` whose
//!   I/P/B frames have mean sizes in ratio 5 : 3 : 1 (typical for
//!   MPEG-4), scaled so the long-run rate equals the stream bandwidth,
//! * log-normal size jitter per frame (cv 0.3), clamped to Table 1's
//!   1–120 KiB.
//!
//! Each stream has a fixed destination (it is an admitted, routed flow).

use crate::source::{AppMessage, TrafficSource};
use dqos_core::TrafficClass;
use dqos_sim_core::dist::LogNormal;
use dqos_sim_core::{Bandwidth, SimDuration, SimRng, SimTime};
use dqos_topology::HostId;
use std::sync::Arc;

/// The paper's GoP pattern: I, then (B B P) x3, then B B.
const GOP: [FrameKind; 12] = [
    FrameKind::I,
    FrameKind::B,
    FrameKind::B,
    FrameKind::P,
    FrameKind::B,
    FrameKind::B,
    FrameKind::P,
    FrameKind::B,
    FrameKind::B,
    FrameKind::P,
    FrameKind::B,
    FrameKind::B,
];

/// Relative mean sizes I : P : B.
const SIZE_RATIO: [f64; 3] = [5.0, 3.0, 1.0];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FrameKind {
    I,
    P,
    B,
}

impl FrameKind {
    fn ratio(self) -> f64 {
        match self {
            FrameKind::I => SIZE_RATIO[0],
            FrameKind::P => SIZE_RATIO[1],
            FrameKind::B => SIZE_RATIO[2],
        }
    }
}

/// The parameters every stream of one configuration shares: GoP slot
/// means, size jitter, frame bounds and cadence. Built once and shared
/// through an [`Arc`], so a stream costs its destination, index and
/// GoP position rather than a copy of these (a 128-host paper run has
/// 80 000 streams).
#[derive(Debug, Clone)]
pub struct VideoParams {
    frame_period: SimDuration,
    /// Mean size per GoP slot, bytes.
    slot_means: [f64; 12],
    jitter: LogNormal,
    min_frame: u64,
    max_frame: u64,
}

impl VideoParams {
    /// Streams of `rate` (400 KB/s in the paper, see
    /// [`crate::MixConfig::paper`]), one frame per `frame_period` (40 ms),
    /// sizes clamped to `[min_frame, max_frame]` (1–120 KiB in Table 1).
    pub fn new(
        rate: Bandwidth,
        frame_period: SimDuration,
        min_frame: u64,
        max_frame: u64,
    ) -> Arc<Self> {
        assert!(min_frame > 0 && min_frame < max_frame, "bad frame size range");
        let mean_frame = rate.as_bytes_per_sec() as f64 * frame_period.as_secs_f64();
        // Normalise the GoP ratios so the average slot equals mean_frame.
        let ratio_mean: f64 = GOP.iter().map(|k| k.ratio()).sum::<f64>() / GOP.len() as f64;
        let mut slot_means = [0.0; 12];
        for (s, k) in slot_means.iter_mut().zip(GOP.iter()) {
            *s = mean_frame * k.ratio() / ratio_mean;
        }
        Arc::new(VideoParams {
            frame_period,
            slot_means,
            jitter: LogNormal::from_mean_cv(1.0, 0.3),
            min_frame,
            max_frame,
        })
    }

    /// A stream's start: its GoP position and first firing time — a
    /// random GoP start and a random phase within one period, so streams
    /// (and their I frames) de-synchronise.
    fn start(&self, rng: &mut SimRng) -> (u8, SimTime) {
        let gop_pos = rng.index(GOP.len()) as u8;
        (gop_pos, SimTime::from_ns(rng.range_u64(0, self.frame_period.as_ns() - 1)))
    }

    /// The size of the frame at GoP slot `gop_pos`, which advances to
    /// the next slot. Every stream representation draws its frames here.
    fn frame_bytes(&self, gop_pos: &mut u8, rng: &mut SimRng) -> u64 {
        let mean = self.slot_means[*gop_pos as usize];
        *gop_pos = ((*gop_pos as usize + 1) % GOP.len()) as u8;
        let size = (mean * self.jitter.sample(rng)) as u64;
        size.clamp(self.min_frame, self.max_frame)
    }
}

/// One MPEG-4 stream.
#[derive(Debug, Clone)]
pub struct VideoSource {
    params: Arc<VideoParams>,
    dst: HostId,
    stream: u32,
    gop_pos: u8,
}

impl VideoSource {
    /// A stream of `rate` (3 MB/s in the paper) to `dst`, one frame per
    /// `frame_period` (40 ms in the paper), sizes clamped to
    /// `[min_frame, max_frame]` (1–120 KiB in Table 1), with parameters
    /// of its own. Many streams of one configuration should share one
    /// block through [`VideoSource::with_params`] instead.
    pub fn new(
        dst: HostId,
        stream: u32,
        rate: Bandwidth,
        frame_period: SimDuration,
        min_frame: u64,
        max_frame: u64,
    ) -> Self {
        let params = VideoParams::new(rate, frame_period, min_frame, max_frame);
        VideoSource::with_params(dst, stream, params)
    }

    /// A stream to `dst` on a shared parameter block.
    pub fn with_params(dst: HostId, stream: u32, params: Arc<VideoParams>) -> Self {
        VideoSource { params, dst, stream, gop_pos: 0 }
    }

    /// The frame cadence.
    pub fn frame_period(&self) -> SimDuration {
        self.params.frame_period
    }
}

impl TrafficSource for VideoSource {
    fn class(&self) -> TrafficClass {
        TrafficClass::Multimedia
    }

    fn fixed_dst(&self) -> Option<HostId> {
        Some(self.dst)
    }

    fn first_arrival(&mut self, rng: &mut SimRng) -> SimTime {
        let (gop_pos, at) = self.params.start(rng);
        self.gop_pos = gop_pos;
        at
    }

    fn emit(&mut self, now: SimTime, rng: &mut SimRng) -> (AppMessage, SimTime) {
        let bytes = self.params.frame_bytes(&mut self.gop_pos, rng);
        let msg = AppMessage {
            dst: self.dst,
            class: TrafficClass::Multimedia,
            bytes,
            stream: Some(self.stream),
        };
        (msg, now + self.params.frame_period)
    }
}

/// One stream of a [`VideoTable`]: what differs between a host's
/// streams — the private RNG stream, destination and GoP position. The
/// stream index is the row's position.
#[derive(Debug, Clone)]
struct VideoRow {
    rng: SimRng,
    dst: HostId,
    gop_pos: u8,
}

// A widened row field must fail the build: the paper fabric keeps 80 000.
const _: () = assert!(std::mem::size_of::<VideoRow>() <= 40);

/// All video streams of one host as one table of compact rows on the
/// host's shared [`VideoParams`], each row bound to its own forked RNG
/// stream. Emits exactly what a [`VideoSource`] per stream, each driven
/// by the same RNG stream, emits — the frames come from the same draw —
/// without a boxed generator per stream.
#[derive(Debug, Clone)]
pub(crate) struct VideoTable {
    params: Arc<VideoParams>,
    rows: Vec<VideoRow>,
}

impl VideoTable {
    /// A table over `params` with no streams yet.
    pub(crate) fn new(params: Arc<VideoParams>, capacity: usize) -> Self {
        VideoTable { params, rows: Vec::with_capacity(capacity) }
    }

    /// Append the next stream (index [`VideoTable::len`]) to `dst`,
    /// drawing its randomness from `rng`.
    pub(crate) fn push(&mut self, dst: HostId, rng: SimRng) {
        self.rows.push(VideoRow { rng, dst, gop_pos: 0 });
    }

    /// Streams in the table.
    pub(crate) fn len(&self) -> usize {
        self.rows.len()
    }

    /// Destinations, in stream order.
    pub(crate) fn dsts(&self) -> impl Iterator<Item = HostId> + '_ {
        self.rows.iter().map(|r| r.dst)
    }

    /// Stream `stream`'s first firing time (see
    /// [`TrafficSource::first_arrival`]).
    pub(crate) fn first_arrival(&mut self, stream: u32) -> SimTime {
        let row = &mut self.rows[stream as usize];
        let (gop_pos, at) = self.params.start(&mut row.rng);
        row.gop_pos = gop_pos;
        at
    }

    /// Stream `stream` fires at `now`: its frame and next firing time
    /// (see [`TrafficSource::emit`]).
    pub(crate) fn emit(&mut self, stream: u32, now: SimTime) -> (AppMessage, SimTime) {
        let row = &mut self.rows[stream as usize];
        let bytes = self.params.frame_bytes(&mut row.gop_pos, &mut row.rng);
        let msg = AppMessage {
            dst: row.dst,
            class: TrafficClass::Multimedia,
            bytes,
            stream: Some(stream),
        };
        (msg, now + self.params.frame_period)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_stream() -> VideoSource {
        // §3.1's self-consistent numbers: 400 KB/s, 40 ms cadence,
        // 1–120 KiB frames (see MixConfig::paper for why not Table 1's
        // "3 Mbyte/s").
        VideoSource::new(
            HostId(1),
            0,
            Bandwidth::bytes_per_sec(400_000),
            SimDuration::from_ms(40),
            1024,
            120 * 1024,
        )
    }

    fn frames(src: &mut VideoSource, seed: u64, n: usize) -> Vec<(SimTime, u64)> {
        let mut rng = SimRng::new(seed);
        let mut t = src.first_arrival(&mut rng);
        let mut out = vec![];
        for _ in 0..n {
            let (m, next) = src.emit(t, &mut rng);
            out.push((t, m.bytes));
            t = next;
        }
        out
    }

    #[test]
    fn fixed_cadence() {
        let mut s = paper_stream();
        let fs = frames(&mut s, 1, 50);
        assert!(fs[0].0 < SimTime::from_ms(40), "phase within one period");
        for w in fs.windows(2) {
            assert_eq!(w[1].0 - w[0].0, SimDuration::from_ms(40));
        }
    }

    #[test]
    fn sizes_in_range_and_bursty() {
        let mut s = paper_stream();
        let fs = frames(&mut s, 2, 600);
        let sizes: Vec<u64> = fs.iter().map(|&(_, b)| b).collect();
        assert!(sizes.iter().all(|&b| (1024..=120 * 1024).contains(&b)));
        // I frames are several times larger than B frames: the max/min
        // ratio over a few GoPs must be substantial.
        let max = *sizes.iter().max().unwrap() as f64;
        let min = *sizes.iter().min().unwrap() as f64;
        assert!(max / min > 3.0, "GoP burstiness missing: {max}/{min}");
    }

    #[test]
    fn long_run_rate_matches_stream_bandwidth() {
        let mut s = paper_stream();
        let n = 1200; // 48 seconds of video
        let total: u64 = frames(&mut s, 3, n).iter().map(|&(_, b)| b).sum();
        let rate = total as f64 / (n as f64 * 0.040);
        let err = (rate - 4.0e5).abs() / 4.0e5;
        assert!(err < 0.05, "rate {rate:.0} B/s, err {err:.3}");
    }

    #[test]
    fn gop_pattern_repeats() {
        let mut s = paper_stream();
        s.gop_pos = 0; // force I first for the test
        let mut rng = SimRng::new(4);
        // Average many GoPs per slot position to beat the jitter.
        let mut slot_sums = [0f64; 12];
        let mut t = SimTime::ZERO;
        for _ in 0..200 {
            for sum in slot_sums.iter_mut() {
                let (m, next) = s.emit(t, &mut rng);
                *sum += m.bytes as f64;
                t = next;
            }
        }
        // Configured ratios are I:P:B = 5:3:1; with cv-0.3 jitter the
        // averages should sit close to them.
        assert!(slot_sums[0] > 1.3 * slot_sums[3], "I ≈ 1.67x P expected");
        assert!(slot_sums[3] > 2.0 * slot_sums[1], "P ≈ 3x B expected");
    }

    /// Pin: streams on one shared parameter block emit exactly what
    /// streams with parameters of their own emit, interleaved on one RNG
    /// the way a host's sources share a calendar.
    #[test]
    fn shared_params_emit_what_own_params_emit() {
        let rate = Bandwidth::bytes_per_sec(400_000);
        let period = SimDuration::from_ms(40);
        let params = VideoParams::new(rate, period, 1024, 120 * 1024);
        let mut shared: Vec<VideoSource> = (0..8)
            .map(|i| VideoSource::with_params(HostId(i + 1), i, Arc::clone(&params)))
            .collect();
        let mut own: Vec<VideoSource> = (0..8)
            .map(|i| VideoSource::new(HostId(i + 1), i, rate, period, 1024, 120 * 1024))
            .collect();
        let run = |streams: &mut Vec<VideoSource>| {
            let mut rng = SimRng::new(0x5EED);
            let mut next: Vec<SimTime> =
                streams.iter_mut().map(|s| s.first_arrival(&mut rng)).collect();
            let mut out = Vec::new();
            for k in 0..2_000 {
                let i = k % streams.len();
                let (m, t) = streams[i].emit(next[i], &mut rng);
                out.push((m.dst, m.stream, m.bytes, t));
                next[i] = t;
            }
            out
        };
        assert_eq!(run(&mut shared), run(&mut own));
        assert_eq!(shared[3].frame_period(), period);
    }

    #[test]
    fn phase_randomised_across_streams() {
        let mut phases = std::collections::HashSet::new();
        for i in 0..20 {
            let mut s = paper_stream();
            let mut rng = SimRng::new(100 + i);
            phases.insert(s.first_arrival(&mut rng).as_ns());
        }
        assert!(phases.len() > 15, "streams start in lockstep");
    }
}
