//! # dqos-traffic
//!
//! Workload generators reproducing Table 1 of the paper (which follows
//! the Network Processing Forum switch-fabric benchmark):
//!
//! | Class       | % BW | Application frame        | Model here |
//! |-------------|------|--------------------------|------------|
//! | Control     | 25   | 128 B – 2 KiB            | Poisson arrivals, uniform sizes ([`ControlSource`]) |
//! | Multimedia  | 25   | 1 KiB – 120 KiB          | synthetic MPEG-4: fixed 40 ms cadence, GoP I/P/B size pattern, 3 MB/s per stream ([`VideoSource`]) |
//! | Best-effort | 25   | 128 B – 100 KiB          | self-similar: Pareto ON/OFF bursts to one destination, Pareto sizes ([`SelfSimilarSource`]) |
//! | Background  | 25   | 128 B – 100 KiB          | same model, lower deadline weight |
//!
//! The paper used real MPEG-4 traces, which we don't have; the synthetic
//! GoP generator preserves what the experiments exercise — bursty frame
//! sizes on a fixed cadence (see DESIGN.md for the substitution note).
//!
//! All sources implement [`TrafficSource`]: a pull-based interface the
//! simulator drives from its event loop, one event per application
//! message. Rates are calibrated analytically and verified by tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod control;
pub mod hotspot;
pub mod mix;
pub mod selfsimilar;
pub mod source;
pub mod video;

pub use control::ControlSource;
pub use hotspot::HotspotSource;
pub use mix::{build_host_mix, build_host_sources, HostMix, HostSources, HotspotSpec, MixConfig};
pub use selfsimilar::SelfSimilarSource;
pub use source::{AppMessage, SourceNode, TrafficSource};
pub use video::{VideoParams, VideoSource};
