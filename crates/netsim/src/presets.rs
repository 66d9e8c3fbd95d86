//! Shared configuration recipes for examples and experiment drivers.
//!
//! Every example used to repeat the same boilerplate: parse a CLI
//! argument, build a bench config, rescale the topology, and convert
//! histogram nanoseconds into table-friendly units. Those recipes live
//! here once, so an example is only its scenario and its table.

use crate::config::SimConfig;
use dqos_core::Architecture;
use dqos_sim_core::SimDuration;
use dqos_stats::Report;
use dqos_topology::ClosParams;
use dqos_trace::TraceSettings;
use std::str::FromStr;

/// The bench preset rescaled to `hosts` endpoints (paper switch/VC/buffer
/// parameters, reduced windows — the workhorse for example sweeps).
pub fn scaled_bench(arch: Architecture, load: f64, hosts: u16) -> SimConfig {
    let mut cfg = SimConfig::bench(arch, load);
    cfg.topology = ClosParams::scaled(hosts);
    cfg
}

/// The tiny preset rescaled to `hosts` endpoints (short windows — for
/// fault-replay examples and smoke runs).
pub fn scaled_tiny(arch: Architecture, load: f64, hosts: u16) -> SimConfig {
    let mut cfg = SimConfig::tiny(arch, load);
    cfg.topology = ClosParams::scaled(hosts);
    cfg
}

/// `cfg` with its measurement window moved to
/// `[warmup_us, warmup_us + measure_us)` (microseconds).
///
/// With a pinned [`SimConfig::source_horizon`], several runs of one seed
/// replay the identical traffic trajectory while this window slides over
/// it — the before/degraded/repaired comparison of the fault examples.
pub fn window_us(mut cfg: SimConfig, warmup_us: u64, measure_us: u64) -> SimConfig {
    cfg.warmup = SimDuration::from_us(warmup_us);
    cfg.measure = SimDuration::from_us(measure_us);
    cfg
}

/// Parse the `n`-th CLI argument (1-based, after the program name), or
/// fall back to `default`. Panics with the argument text on a value that
/// does not parse — examples want loud misuse, not silent defaults.
pub fn cli_arg<T: FromStr>(n: usize, default: T) -> T {
    // tidy: allow(env-read) -- CLI parsing for the examples is this
    // helper's entire purpose; reports never depend on it silently.
    match std::env::args().nth(n) {
        // tidy: allow(no-unwrap) -- examples want loud misuse (documented
        // contract above), not a silently substituted default.
        Some(s) => s.parse().unwrap_or_else(|_| panic!("unparsable argument {n}: {s:?}")),
        None => default,
    }
}

/// Flight-recorder settings from the `DQOS_TRACE` environment variable:
/// unset or `0` = off, `1` = on with defaults, `N > 1` = on with event
/// capacity `N`. Tracing never changes simulation results — only whether
/// a trace is captured alongside them — so examples expose it as an
/// environment knob rather than a per-example flag.
pub fn env_trace() -> TraceSettings {
    // tidy: allow(env-read) -- tracing changes only whether a trace is
    // captured; simulation results are bit-identical either way.
    match std::env::var("DQOS_TRACE") {
        Ok(s) => {
            let n: u64 =
                // tidy: allow(no-unwrap) -- examples want loud misuse
                // (documented contract above), not a silent default.
                s.parse().unwrap_or_else(|_| panic!("unparsable DQOS_TRACE: {s:?}"));
            match n {
                0 => TraceSettings::OFF,
                1 => TraceSettings::on(),
                cap => TraceSettings::with_capacity(cap as u32),
            }
        }
        Err(_) => TraceSettings::OFF,
    }
}

/// Delivered throughput of `class` over the report's measurement window,
/// in Gb/s.
pub fn class_gbps(report: &Report, class: &str) -> f64 {
    report
        .class(class)
        // tidy: allow(no-unwrap) -- example-facing accessor: a missing
        // class name is caller misuse and should fail loudly.
        .unwrap_or_else(|| panic!("no class {class:?} in report"))
        .delivered
        .throughput(report.window_start, report.window_end)
        .as_gbps_f64()
}

/// `(mean, p99, max)` packet latency of `class`, microseconds.
pub fn packet_latency_us(report: &Report, class: &str) -> (f64, f64, f64) {
    let h = &report
        .class(class)
        // tidy: allow(no-unwrap) -- example-facing accessor: a missing
        // class name is caller misuse and should fail loudly.
        .unwrap_or_else(|| panic!("no class {class:?} in report"))
        .packet_latency;
    (h.mean() / 1e3, h.quantile(0.99) as f64 / 1e3, h.max() as f64 / 1e3)
}

/// `(mean, p50, p99)` message/frame latency of `class`, milliseconds.
pub fn message_latency_ms(report: &Report, class: &str) -> (f64, f64, f64) {
    let h = &report
        .class(class)
        // tidy: allow(no-unwrap) -- example-facing accessor: a missing
        // class name is caller misuse and should fail loudly.
        .unwrap_or_else(|| panic!("no class {class:?} in report"))
        .message_latency;
    (h.mean() / 1e6, h.quantile(0.5) as f64 / 1e6, h.quantile(0.99) as f64 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_presets_rescale_topology_only() {
        let b = scaled_bench(Architecture::Ideal, 0.5, 16);
        assert_eq!(b.topology.n_hosts(), 16);
        assert_eq!(b.switch_buffer_per_vc, SimConfig::bench(Architecture::Ideal, 0.5).switch_buffer_per_vc);
        let t = scaled_tiny(Architecture::Ideal, 0.5, 64);
        assert_eq!(t.topology.n_hosts(), 64);
        assert_eq!(t.warmup, SimConfig::tiny(Architecture::Ideal, 0.5).warmup);
    }

    #[test]
    fn window_us_moves_only_the_window() {
        let base = SimConfig::tiny(Architecture::Ideal, 0.5);
        let w = window_us(base, 3_000, 2_000);
        assert_eq!(w.warmup, SimDuration::from_us(3_000));
        assert_eq!(w.measure, SimDuration::from_us(2_000));
        assert_eq!(w.seed, base.seed);
        assert_eq!(w.source_horizon, base.source_horizon);
    }
}
