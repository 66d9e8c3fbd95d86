//! Simulation configuration.

use dqos_core::Architecture;
use dqos_sim_core::{SimDuration, SimTime};
use dqos_topology::ClosParams;
use dqos_trace::TraceSettings;
use dqos_traffic::MixConfig;

/// How multimedia deadlines are computed (§3.1 discusses all three; the
/// paper's proposal — and default — is the frame-spread method).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum VideoDeadlines {
    /// `D += target / Parts(frame)`: every frame lands close to `target`
    /// regardless of size, packets smoothly spread (the proposal).
    FrameSpread {
        /// Desired per-frame latency (10 ms in the paper).
        target_ns: u64,
    },
    /// `D += len / avg_bw`: correct long-run rate, but peak-rate frames
    /// suffer "intolerable delays" (§3.1's first rejected option).
    AverageBandwidth,
    /// `D += len / peak_bw` with `peak_bw = max_frame / period`: no
    /// oversized delays, but unnecessary bursts for small frames and
    /// size-dependent latency (§3.1's second rejected option).
    PeakBandwidth,
}

/// How per-node clocks relate to the hidden global clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClockOffsets {
    /// All clocks synchronised (offset 0). The baseline.
    Synced,
    /// Every node gets a deterministic pseudo-random offset in
    /// `[0, max_ns]`, derived from the seed. §3.3's point is that
    /// results must not change.
    RandomUpTo(
        /// Largest offset, nanoseconds.
        u64,
    ),
}

/// Everything one simulation run needs.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// The switch architecture under test.
    pub arch: Architecture,
    /// Network shape.
    pub topology: ClosParams,
    /// Traffic workload (includes link bandwidth and offered load).
    pub mix: MixConfig,
    /// Switch buffer per VC per port, bytes (8 KiB in the paper).
    pub switch_buffer_per_vc: u32,
    /// Maximum transfer unit, bytes (2 KiB, PCI AS-typical).
    pub mtu: u32,
    /// Eligible-time lead for multimedia packets (20 µs in the paper);
    /// `None` disables smoothing (the §3.1 ablation).
    pub eligible_lead_ns: Option<u64>,
    /// Multimedia deadline method (§3.1).
    pub video_deadlines: VideoDeadlines,
    /// Wire propagation delay per hop.
    pub wire_delay: SimDuration,
    /// Credit return delay (wire + processing).
    pub credit_delay: SimDuration,
    /// Warm-up: deliveries and offered traffic before this are ignored.
    pub warmup: SimDuration,
    /// Measurement window length (after warm-up).
    pub measure: SimDuration,
    /// How long the generators keep producing traffic. `None` (the
    /// default) stops them at `window_end()`. Setting it past the
    /// measurement window lets several runs share one traffic trajectory
    /// while measuring different windows of it — how the fault examples
    /// compare before/during/after-failure behaviour of the *same* run.
    pub source_horizon: Option<SimDuration>,
    /// Master seed: same seed, same run, bit for bit.
    pub seed: u64,
    /// Per-node clock offsets.
    pub clocks: ClockOffsets,
    /// Input-buffer organisation: `false` = the paper's single queue per
    /// (input, VC); `true` = per-output VOQ banks (the `ablation_voq`
    /// configuration).
    pub input_voq: bool,
    /// Aggregated-record bandwidths for the two best-effort classes
    /// inside VC1, as fractions of the link — the "weights" of §3/Fig. 4
    /// by which the EDF architectures differentiate classes sharing one
    /// VC. The defaults split the residual capacity left by the two
    /// regulated classes (50 % of the link) 2:1: Best-effort 1/3,
    /// Background 1/6 of link bandwidth. A class offering more than its
    /// record falls behind its virtual clock and yields to the other.
    pub be_weights: (f64, f64),
    /// Threads per run. The only accepted value is `1` (the default):
    /// a run is one event loop, and any other value makes
    /// [`crate::Network::try_run`] return [`crate::SimError::Config`].
    /// Independent runs parallelise across configurations instead
    /// ([`dqos_sim_core::par_map`]).
    pub workers: usize,
    /// Flight-recorder settings ([`TraceSettings::OFF`] by default).
    /// Enabling tracing never changes simulation results — only whether
    /// a [`dqos_trace::Trace`] and a `trace` section in the report are
    /// produced alongside them.
    pub trace: TraceSettings,
}

impl SimConfig {
    /// The paper's full-scale setup: 128 hosts, 16-port switches,
    /// 8 Gb/s, 8 KiB buffers, Table-1 traffic.
    pub fn paper(arch: Architecture, load: f64) -> Self {
        SimConfig {
            arch,
            topology: ClosParams::paper(),
            mix: MixConfig::paper(load),
            switch_buffer_per_vc: 8 * 1024,
            mtu: 2048,
            eligible_lead_ns: Some(20_000),
            video_deadlines: VideoDeadlines::FrameSpread { target_ns: 10_000_000 },
            wire_delay: SimDuration::from_ns(32),
            credit_delay: SimDuration::from_ns(32),
            // Warm-up must exceed the 10 ms multimedia frame-latency
            // pipeline so the measurement window sees steady state.
            warmup: SimDuration::from_ms(15),
            measure: SimDuration::from_ms(50),
            source_horizon: None,
            seed: 0xD0_5E,
            clocks: ClockOffsets::Synced,
            input_voq: false,
            be_weights: (1.0 / 3.0, 1.0 / 6.0),
            workers: 1,
            trace: TraceSettings::OFF,
        }
    }

    /// A reduced instance with identical switch/VC/buffer parameters for
    /// fast benches: 32 hosts, shorter windows.
    pub fn bench(arch: Architecture, load: f64) -> Self {
        let mut c = Self::paper(arch, load);
        c.topology = ClosParams::scaled(32);
        c.warmup = SimDuration::from_ms(12);
        c.measure = SimDuration::from_ms(20);
        c
    }

    /// A tiny instance for unit/integration tests: 8 hosts on one leaf
    /// pair, very short windows.
    pub fn tiny(arch: Architecture, load: f64) -> Self {
        let mut c = Self::paper(arch, load);
        c.topology = ClosParams::scaled(16);
        c.warmup = SimDuration::from_ms(1);
        c.measure = SimDuration::from_ms(5);
        c
    }

    /// End of the warm-up window (global time).
    pub fn window_start(&self) -> SimTime {
        SimTime::ZERO + self.warmup
    }

    /// End of the measurement window (global time).
    pub fn window_end(&self) -> SimTime {
        SimTime::ZERO + self.warmup + self.measure
    }

    /// When the traffic generators stop producing (global time).
    pub fn source_stop(&self) -> SimTime {
        match self.source_horizon {
            Some(h) => SimTime::ZERO + h,
            None => self.window_end(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_preset_matches_section4() {
        let c = SimConfig::paper(Architecture::Advanced2Vc, 1.0);
        assert_eq!(c.topology.n_hosts(), 128);
        assert_eq!(c.topology.radix(), 16);
        assert_eq!(c.switch_buffer_per_vc, 8192);
        assert_eq!(c.mtu, 2048);
        assert_eq!(c.eligible_lead_ns, Some(20_000));
        assert!((c.mix.link_bw.as_gbps_f64() - 8.0).abs() < 1e-9);
    }

    #[test]
    fn windows() {
        let c = SimConfig::tiny(Architecture::Ideal, 0.5);
        assert_eq!(c.window_start(), SimTime::from_ms(1));
        assert_eq!(c.window_end(), SimTime::from_ms(6));
        assert_eq!(c.source_stop(), c.window_end());
    }

    #[test]
    fn source_horizon_decouples_generation_from_measurement() {
        let mut c = SimConfig::tiny(Architecture::Ideal, 0.5);
        c.source_horizon = Some(SimDuration::from_ms(20));
        assert_eq!(c.source_stop(), SimTime::from_ms(20));
        assert_eq!(c.window_end(), SimTime::from_ms(6), "window unchanged");
    }

    #[test]
    fn config_is_plain_data() {
        // SimConfig is `Copy`: snapshotting a config (for result caching
        // or job fan-out) is a bitwise copy, and a copy is
        // indistinguishable from the original.
        let c = SimConfig::bench(Architecture::Simple2Vc, 0.7);
        let back = c;
        assert_eq!(back.arch, c.arch);
        assert_eq!(back.topology.n_hosts(), 32);
        assert_eq!(format!("{back:?}"), format!("{c:?}"));
    }
}
