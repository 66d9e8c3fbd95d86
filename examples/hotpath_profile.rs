//! **Memory footprint of an untraced run — where do the bytes go?**
//!
//! Runs one untraced simulation and prints what it held: peak packets in
//! flight, peak calendar events pending and the bytes per calendar
//! entry, resident set after set-up, what set-up costs per video stream,
//! `(set-up RSS − RSS before set-up) / video streams`, the process's
//! `VmHWM` after the run, and the heap each in-flight packet costs,
//! `(VmHWM − set-up RSS) / peak in flight` (Linux `/proc/self/status`;
//! reported unavailable elsewhere). Per-stream records are most of a
//! paper fabric's set-up and deep NIC backlogs are what a loaded run
//! holds, so these are the figures a footprint regression moves
//! (DESIGN.md §10.6).
//!
//! Where the wall-clock ticks go is perfbench's per-layer ledger
//! (`python3 perfbench/run.py ... --trace 1`); where *simulated*
//! packets lose their slack is the flight recorder's per-class,
//! per-stage table (`examples/trace_tour.rs`).
//!
//! ```text
//! cargo run --release --example hotpath_profile [hosts] [load] [arch]
//! # smoke (default):   16 hosts at 90% load, Simple 2-VC
//! # paper fabric:      cargo run --release --example hotpath_profile 128 1.0 advanced
//! ```
//!
//! `scripts/check.sh` runs the default (step 6); a run that panics or
//! breaks an invariant fails the gate, so a footprint regression shows
//! in every gate run.

use deadline_qos::core::Architecture;
use deadline_qos::netsim::presets::{cli_arg, scaled_tiny, window_us};
use deadline_qos::netsim::{Network, CALENDAR_ENTRY_BYTES};

/// A `kB` line of `/proc/self/status` (e.g. `VmHWM`), in MiB.
fn status_mib(key: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let value = status.lines().find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))?;
    let kib: f64 = value.trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kib / 1024.0)
}

fn main() {
    let hosts: u16 = cli_arg(1, 16);
    let load: f64 = cli_arg(2, 0.9);
    let arch = match std::env::args().nth(3) {
        Some(s) => Architecture::from_slug(&s).expect("arch: traditional|ideal|simple|advanced"),
        None => Architecture::Simple2Vc,
    };

    // The presets leave the flight recorder off: its buffers would count.
    let cfg = window_us(scaled_tiny(arch, load, hosts), 2_000, 2_000);

    println!("profiling {} @ {:.0}% load ({hosts} hosts)...\n", arch.label(), load * 100.0);
    let before = status_mib("VmRSS");
    let net = Network::new(cfg);
    let setup = status_mib("VmRSS");
    let streams = cfg.mix.video_streams_per_host() as u64 * cfg.topology.n_hosts() as u64;
    let (_, summary) = net.run();
    let hwm = status_mib("VmHWM");
    summary.check_strict();
    println!("== memory (untraced run) ==");
    println!("  peak packets in flight {:>10}", summary.peak_in_flight);
    println!(
        "  peak pending events    {:>10}   ({CALENDAR_ENTRY_BYTES} B per calendar entry, {:.2} MiB at the peak)",
        summary.peak_pending_events,
        (summary.peak_pending_events as usize * CALENDAR_ENTRY_BYTES) as f64 / (1024.0 * 1024.0)
    );
    let (Some(before), Some(setup), Some(hwm)) = (before, setup, hwm) else {
        println!("  VmRSS / VmHWM          unavailable (no /proc/self/status)");
        return;
    };
    println!("  VmRSS after set-up     {setup:>10.1} MiB");
    println!(
        "  per video stream       {:>10.0} B    ((set-up RSS - RSS before set-up) / {streams} streams)",
        (setup - before).max(0.0) * 1024.0 * 1024.0 / streams.max(1) as f64
    );
    println!("  VmHWM after run        {hwm:>10.1} MiB");
    let grown = (hwm - setup).max(0.0) * 1024.0 * 1024.0;
    println!(
        "  per in-flight packet   {:>10.0} B    ((VmHWM - set-up RSS) / peak in flight)",
        grown / summary.peak_in_flight.max(1) as f64
    );
}
