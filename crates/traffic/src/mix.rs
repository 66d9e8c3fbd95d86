//! The Table-1 workload: four classes, 25 % of injected bandwidth each.

use crate::control::ControlSource;
use crate::selfsimilar::SelfSimilarSource;
use crate::source::{random_dst, AppMessage, SourceNode, TrafficSource};
use crate::video::{VideoParams, VideoSource, VideoTable};
use dqos_core::TrafficClass;
use dqos_sim_core::{Bandwidth, SimDuration, SimRng, SimTime};
use dqos_topology::HostId;
use std::sync::Arc;

/// Workload parameters (§4.2 defaults).
#[derive(Debug, Clone, Copy)]
pub struct MixConfig {
    /// Link bandwidth (8 Gb/s in the paper).
    pub link_bw: Bandwidth,
    /// Global injected load as a fraction of link bandwidth (the x axis
    /// of the paper's figures, 0.1 ..= 1.0).
    pub load: f64,
    /// Bandwidth share per class (Table 1: 25 % each).
    pub shares: [f64; 4],
    /// Per-stream video bandwidth (3 MB/s).
    pub video_stream_bw: Bandwidth,
    /// Video frame period (40 ms).
    pub video_frame_period: SimDuration,
    /// Video frame size bounds (1 KiB – 120 KiB).
    pub video_frame_bounds: (u64, u64),
    /// Control message size bounds (128 B – 2 KiB).
    pub control_msg_bounds: (u32, u32),
    /// Best-effort message size bounds (128 B – 100 KiB).
    pub besteffort_msg_bounds: (f64, f64),
    /// Pareto shape for the self-similar classes.
    pub pareto_alpha: f64,
    /// Optional hotspot overlay: every host additionally aims traffic at
    /// one destination (the congestion-spreading scenario of
    /// `examples/hotspot.rs`). `None` is the Table-1 workload.
    pub hotspot: Option<HotspotSpec>,
}

/// Hotspot overlay parameters.
#[derive(Debug, Clone, Copy)]
pub struct HotspotSpec {
    /// The victim destination.
    pub dst: u32,
    /// Extra offered load per host toward the hotspot, as a fraction of
    /// link bandwidth.
    pub share: f64,
    /// The class the hotspot traffic rides in.
    pub class: TrafficClass,
    /// Message size, bytes.
    pub msg_bytes: u64,
}

impl MixConfig {
    /// The paper's Table 1 at a given load fraction.
    ///
    /// Per-stream video bandwidth: Table 1 says "3 Mbyte/s MPEG-4
    /// traces", but 3 MB/s at one frame per 40 ms forces a 120 KB *mean*
    /// frame — equal to Table 1's own *maximum* frame size, which is
    /// impossible. §3.1's worked example (400 KB/s average, frames
    /// 1–120 KB, 40 ms cadence) is self-consistent, so streams run at
    /// 400 KB/s and the 25 % class share is met by stream count
    /// (see DESIGN.md).
    pub fn paper(load: f64) -> Self {
        assert!(load > 0.0 && load <= 1.0, "load must be in (0, 1]");
        MixConfig {
            link_bw: Bandwidth::gbps(8),
            load,
            shares: [0.25; 4],
            video_stream_bw: Bandwidth::bytes_per_sec(400_000),
            video_frame_period: SimDuration::from_ms(40),
            video_frame_bounds: (1024, 120 * 1024),
            control_msg_bounds: (128, 2048),
            besteffort_msg_bounds: (128.0, 100_000.0),
            pareto_alpha: 1.5,
            hotspot: None,
        }
    }

    /// The byte rate one host offers for `class` at this load.
    pub fn class_rate(&self, class: TrafficClass) -> Bandwidth {
        self.link_bw.scaled(self.shares[class.idx()] * self.load)
    }

    /// Number of video streams per host at this load (each stream is
    /// `video_stream_bw`; the share is met by stream count, as the paper
    /// sweeps load by adding/removing connections).
    pub fn video_streams_per_host(&self) -> u32 {
        let share = self.class_rate(TrafficClass::Multimedia).as_bytes_per_sec() as f64;
        (share / self.video_stream_bw.as_bytes_per_sec() as f64).round().max(0.0) as u32
    }
}

/// The Table-1 source set of one host, before its generators are bound
/// to their RNG streams: the aggregated classes' generators boxed, the
/// video streams as destinations on one shared parameter block.
///
/// Sources are *labelled* by their position in [`build_host_sources`]'
/// list — control, the video streams in stream order, best-effort,
/// background, then the hotspot overlay. A label names the source's
/// forked RNG stream and its place in the host's seeding order, so both
/// views of the set draw and schedule identically.
pub struct HostMix {
    /// Aggregated generators, in label order.
    boxed: Vec<Box<dyn TrafficSource>>,
    /// Label of the first video stream: the boxed generators before it.
    video_at: usize,
    /// The shared parameter block and each stream's destination.
    video: Option<(Arc<VideoParams>, Vec<HostId>)>,
}

/// Build the Table-1 source set for one host.
///
/// Video destinations are drawn uniformly (excluding the source itself)
/// with `rng`, in stream order, so the whole fleet's stream matrix is
/// deterministic per seed.
pub fn build_host_mix(cfg: &MixConfig, src: HostId, n_hosts: u32, rng: &mut SimRng) -> HostMix {
    let mut boxed: Vec<Box<dyn TrafficSource>> = Vec::new();
    // Control: one Poisson source.
    let control_rate = cfg.class_rate(TrafficClass::Control);
    if control_rate.as_bytes_per_sec() > 0 {
        boxed.push(Box::new(ControlSource::new(
            src,
            n_hosts,
            control_rate,
            cfg.control_msg_bounds.0,
            cfg.control_msg_bounds.1,
        )));
    }
    // Multimedia: one admitted stream per destination draw, all on one
    // shared parameter block.
    let video_at = boxed.len();
    let n_streams = cfg.video_streams_per_host();
    let video = (n_streams > 0).then(|| {
        let params = VideoParams::new(
            cfg.video_stream_bw,
            cfg.video_frame_period,
            cfg.video_frame_bounds.0,
            cfg.video_frame_bounds.1,
        );
        (params, (0..n_streams).map(|_| random_dst(src, n_hosts, rng)).collect())
    });
    // Best-effort and Background: one ON/OFF source each.
    for class in [TrafficClass::BestEffort, TrafficClass::Background] {
        let rate = cfg.class_rate(class);
        if rate.as_bytes_per_sec() > 0 {
            boxed.push(Box::new(SelfSimilarSource::new(
                src,
                n_hosts,
                class,
                rate,
                cfg.link_bw,
                cfg.besteffort_msg_bounds.0,
                cfg.besteffort_msg_bounds.1,
                cfg.pareto_alpha,
            )));
        }
    }
    // Optional hotspot overlay.
    if let Some(h) = cfg.hotspot {
        if h.dst != src.0 {
            boxed.push(Box::new(crate::hotspot::HotspotSource::new(
                dqos_topology::HostId(h.dst),
                h.class,
                cfg.link_bw.scaled(h.share),
                h.msg_bytes,
            )));
        }
    }
    HostMix { boxed, video_at, video }
}

/// Build the Table-1 source set for one host as one boxed generator per
/// source, in label order (see [`HostMix`]): the boxed view of
/// [`build_host_mix`].
pub fn build_host_sources(
    cfg: &MixConfig,
    src: HostId,
    n_hosts: u32,
    rng: &mut SimRng,
) -> Vec<Box<dyn TrafficSource>> {
    build_host_mix(cfg, src, n_hosts, rng).into_boxed()
}

impl HostMix {
    /// Every source boxed, in label order: one [`VideoSource`] per
    /// stream on the shared parameter block.
    fn into_boxed(self) -> Vec<Box<dyn TrafficSource>> {
        let mut boxed = self.boxed;
        if let Some((params, dsts)) = self.video {
            let streams = dsts.into_iter().enumerate().map(|(s, dst)| {
                Box::new(VideoSource::with_params(dst, s as u32, Arc::clone(&params)))
                    as Box<dyn TrafficSource>
            });
            boxed.splice(self.video_at..self.video_at, streams);
        }
        boxed
    }

    /// Bind every source to its own stream forked from `rng` by label,
    /// in label order, keeping the video streams as one table.
    pub fn bind(self, rng: &mut SimRng) -> HostSources {
        let mut aggregated = self.boxed.into_iter();
        let mut nodes = Vec::with_capacity(aggregated.len());
        let mut label = 0u64;
        let mut fork = || {
            label += 1;
            rng.fork(label - 1)
        };
        for s in aggregated.by_ref().take(self.video_at) {
            nodes.push(SourceNode::new(s, fork()));
        }
        let video = self.video.map(|(params, dsts)| {
            let mut table = VideoTable::new(params, dsts.len());
            for dst in dsts {
                table.push(dst, fork());
            }
            table
        });
        for s in aggregated {
            nodes.push(SourceNode::new(s, fork()));
        }
        HostSources { nodes, video_at: self.video_at as u32, video }
    }
}

/// One host's sources bound to their RNG streams: the aggregated
/// generators as [`SourceNode`]s, the video streams as one table of
/// compact rows. Sources are addressed by label (see [`HostMix`]).
pub struct HostSources {
    /// Aggregated generators, in label order.
    nodes: Vec<SourceNode>,
    /// Label of the first video stream.
    video_at: u32,
    video: Option<VideoTable>,
}

impl HostSources {
    /// Sources (labels `0..len`).
    pub fn len(&self) -> usize {
        self.nodes.len() + self.video_streams()
    }

    /// True if the host has no source.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Video streams (labels `video_at..video_at + video_streams()`).
    fn video_streams(&self) -> usize {
        self.video.as_ref().map_or(0, VideoTable::len)
    }

    /// The video streams' destinations, in stream order.
    pub fn video_dsts(&self) -> impl Iterator<Item = HostId> + '_ {
        self.video.iter().flat_map(VideoTable::dsts)
    }

    /// The table and stream index `label` names, if it names a stream.
    fn stream(&mut self, label: u32) -> Option<(&mut VideoTable, u32)> {
        let s = label.checked_sub(self.video_at)?;
        self.video.as_mut().filter(|t| (s as usize) < t.len()).map(|t| (t, s))
    }

    /// The generator `label` names, which is not a video stream.
    fn node(&mut self, label: u32) -> &mut SourceNode {
        let i = if label < self.video_at { label } else { label - self.video_streams() as u32 };
        &mut self.nodes[i as usize]
    }

    /// Source `label`'s first firing time.
    pub fn first_arrival(&mut self, label: u32) -> SimTime {
        match self.stream(label) {
            Some((table, s)) => table.first_arrival(s),
            None => self.node(label).first_arrival(),
        }
    }

    /// Source `label` fires at `now`: its message and next firing time.
    pub fn fire(&mut self, label: u32, now: SimTime) -> (AppMessage, SimTime) {
        match self.stream(label) {
            Some((table, s)) => table.emit(s, now),
            None => self.node(label).fire(now),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_mix_dimensions() {
        let cfg = MixConfig::paper(1.0);
        // 25% of 8 Gb/s = 2 Gb/s = 250 MB/s per class.
        assert_eq!(cfg.class_rate(TrafficClass::Control).as_bytes_per_sec(), 250_000_000);
        // 250 MB/s / 400 KB/s = 625 streams.
        assert_eq!(cfg.video_streams_per_host(), 625);
    }

    #[test]
    fn load_scales_rates() {
        let half = MixConfig::paper(0.5);
        assert_eq!(half.class_rate(TrafficClass::Background).as_bytes_per_sec(), 125_000_000);
        assert_eq!(half.video_streams_per_host(), 313);
    }

    #[test]
    fn host_sources_cover_all_classes() {
        let cfg = MixConfig::paper(1.0);
        let mut rng = SimRng::new(42);
        let sources = build_host_sources(&cfg, HostId(0), 32, &mut rng);
        let mut counts = [0usize; 4];
        for s in &sources {
            counts[s.class().idx()] += 1;
        }
        assert_eq!(counts[TrafficClass::Control.idx()], 1);
        assert_eq!(counts[TrafficClass::Multimedia.idx()], 625);
        assert_eq!(counts[TrafficClass::BestEffort.idx()], 1);
        assert_eq!(counts[TrafficClass::Background.idx()], 1);
    }

    #[test]
    fn per_class_offered_rates_match_table1() {
        // Run every source of one host for 200 ms of simulated arrivals
        // and check per-class byte shares are ~25 % each.
        let cfg = MixConfig::paper(1.0);
        let mut rng = SimRng::new(7);
        let sources = build_host_sources(&cfg, HostId(3), 32, &mut rng);
        let horizon = SimTime::from_ms(200);
        let mut bytes = [0u64; 4];
        for mut s in sources {
            let mut t = s.first_arrival(&mut rng);
            while t <= horizon {
                let (m, next) = s.emit(t, &mut rng);
                bytes[m.class.idx()] += m.bytes;
                t = next;
            }
        }
        let total: u64 = bytes.iter().sum();
        let expect_total = 1.0e9 * 0.2; // 1 GB/s for 0.2 s
        assert!(
            (total as f64 - expect_total).abs() / expect_total < 0.1,
            "total {total}"
        );
        for (i, &b) in bytes.iter().enumerate() {
            let share = b as f64 / total as f64;
            assert!(
                (share - 0.25).abs() < 0.06,
                "class {i} share {share:.3} (bytes {b})"
            );
        }
    }

    /// Differential: a host's sources bound as one video table plus
    /// boxed aggregated generators emit exactly what one boxed generator
    /// per source emits, each on the RNG stream forked for its label —
    /// every source of a paper host (all 625 video streams), four
    /// firings each, with and without the hotspot overlay after them.
    #[test]
    fn video_table_emits_what_boxed_sources_emit() {
        let mut hotspot = MixConfig::paper(1.0);
        hotspot.hotspot = Some(HotspotSpec {
            dst: 0,
            share: 0.1,
            class: TrafficClass::BestEffort,
            msg_bytes: 4096,
        });
        for (cfg, n_boxed) in [(MixConfig::paper(1.0), 3), (hotspot, 4)] {
            let (src, n_hosts) = (HostId(5), 128);
            let mut rng_a = SimRng::new(0x7AB1E);
            let mut nodes: Vec<SourceNode> = build_host_sources(&cfg, src, n_hosts, &mut rng_a)
                .into_iter()
                .enumerate()
                .map(|(i, s)| SourceNode::new(s, rng_a.fork(i as u64)))
                .collect();
            let mut rng_b = SimRng::new(0x7AB1E);
            let mut host = build_host_mix(&cfg, src, n_hosts, &mut rng_b).bind(&mut rng_b);
            assert_eq!(rng_a, rng_b, "both views draw the same destinations and forks");
            assert_eq!((host.len(), host.video_streams()), (625 + n_boxed, 625));
            let fixed: Vec<HostId> = nodes.iter().filter_map(|n| n.source.fixed_dst()).collect();
            assert_eq!(host.video_dsts().collect::<Vec<_>>(), fixed);
            for (label, node) in nodes.iter_mut().enumerate() {
                let label = label as u32;
                let mut t = node.first_arrival();
                assert_eq!(host.first_arrival(label), t, "label {label}");
                for _ in 0..4 {
                    let (msg, next) = node.fire(t);
                    assert_eq!(host.fire(label, t), (msg, next), "label {label} at {t:?}");
                    t = next;
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "load must be in")]
    fn zero_load_rejected() {
        MixConfig::paper(0.0);
    }
}
