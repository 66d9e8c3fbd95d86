//! **Self-profiling walkthrough — where do the ticks go?**
//!
//! Points the PR-5 slack-attribution tracer at the simulator itself:
//! runs a traced simulation and prints both sides of "where the ticks
//! go" —
//!
//! * **wall-clock ticks**: events processed and events per wall-clock
//!   second, the number the struct-of-arrays / batch-arbitration hot
//!   path optimises (recorded as `fullsim/...` rows in
//!   `BENCH_kernel.json`);
//! * **simulated ticks**: the per-class, per-stage table of where
//!   deadline-missing packets lost their slack (pacing, VC arbitration,
//!   head-of-line blocking, link stalls, ...), which is how the hot
//!   spots were found in the first place;
//! * **memory**: an untraced run of the same config, made first so the
//!   recorder's buffers do not count — peak packets in flight, peak
//!   calendar events pending and the bytes per calendar entry, resident
//!   set after set-up, what set-up costs per video stream, `(set-up RSS
//!   − RSS before set-up) / video streams`, the process's `VmHWM` after
//!   the run, and the heap each in-flight packet costs, `(VmHWM − set-up
//!   RSS) / peak in flight` (Linux `/proc/self/status`; reported
//!   unavailable elsewhere). Per-stream records are most of a paper
//!   fabric's set-up and deep NIC backlogs are what a loaded run holds,
//!   so these are the figures a footprint regression moves (DESIGN.md
//!   §10.6).
//!
//! ```text
//! cargo run --release --example hotpath_profile [hosts] [load] [arch]
//! # smoke (default):   16 hosts at 90% load, Simple 2-VC
//! # paper fabric:      cargo run --release --example hotpath_profile 128 1.0 advanced
//! ```
//!
//! `scripts/check.sh` runs the default as a non-gating smoke (step 6):
//! the tables are diagnostic output, not a pass/fail criterion, but a
//! footprint regression shows in every gate run.

use deadline_qos::core::Architecture;
use deadline_qos::netsim::presets::{cli_arg, scaled_tiny, window_us};
use deadline_qos::netsim::{Network, SimConfig, TraceSettings, CALENDAR_ENTRY_BYTES};

/// A `kB` line of `/proc/self/status` (e.g. `VmHWM`), in MiB.
fn status_mib(key: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let value = status.lines().find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))?;
    let kib: f64 = value.trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kib / 1024.0)
}

/// Untraced run of `cfg`: peak packets in flight and where the
/// process's memory went.
fn footprint(mut cfg: SimConfig) {
    cfg.trace = TraceSettings::OFF;
    let before = status_mib("VmRSS");
    let net = Network::new(cfg);
    let setup = status_mib("VmRSS");
    let streams = cfg.mix.video_streams_per_host() as u64 * cfg.topology.n_hosts() as u64;
    let (_, summary) = net.run();
    let hwm = status_mib("VmHWM");
    println!("== memory (untraced run) ==");
    println!("  peak packets in flight {:>10}", summary.peak_in_flight);
    println!(
        "  peak pending events    {:>10}   ({CALENDAR_ENTRY_BYTES} B per calendar entry, {:.2} MiB at the peak)",
        summary.peak_pending_events,
        (summary.peak_pending_events as usize * CALENDAR_ENTRY_BYTES) as f64 / (1024.0 * 1024.0)
    );
    let (Some(before), Some(setup), Some(hwm)) = (before, setup, hwm) else {
        println!("  VmRSS / VmHWM          unavailable (no /proc/self/status)\n");
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
        "  per in-flight packet   {:>10.0} B    ((VmHWM - set-up RSS) / peak in flight)\n",
        grown / summary.peak_in_flight.max(1) as f64
    );
}

fn main() {
    let hosts: u16 = cli_arg(1, 16);
    let load: f64 = cli_arg(2, 0.9);
    let arch = match std::env::args().nth(3) {
        Some(s) => Architecture::from_slug(&s).expect("arch: traditional|ideal|simple|advanced"),
        None => Architecture::Simple2Vc,
    };

    let mut cfg = window_us(scaled_tiny(arch, load, hosts), 2_000, 2_000);
    cfg.trace = TraceSettings::on();

    println!("profiling {} @ {:.0}% load ({hosts} hosts)...\n", arch.label(), load * 100.0);
    footprint(cfg);
    let wall_start = std::time::Instant::now();
    let (report, summary, trace) = Network::new(cfg).run_traced();
    let wall = wall_start.elapsed();
    summary.check_strict();

    // Wall-clock side: what a second of host time buys. The traced rate
    // runs a few percent below the untraced `fullsim` rows in
    // BENCH_kernel.json (the recorder adds a branch and a ring write per
    // event) — this table is for locating the ticks, not for the record.
    println!("== wall-clock ticks ==");
    println!("  events processed   {:>12}", summary.events);
    println!("  wall time          {:>12.1} ms", wall.as_secs_f64() * 1e3);
    println!(
        "  event rate         {:>12.0} events/sec ({:.1} ns/event, tracer on)",
        summary.events as f64 / wall.as_secs_f64(),
        wall.as_nanos() as f64 / summary.events.max(1) as f64
    );
    println!(
        "  packets delivered  {:>12}   trace events kept {} (dropped {})",
        summary.delivered_packets,
        trace.events.len(),
        trace.dropped
    );

    // Simulated side: the slack table. Every deadline-missing delivery's
    // lost slack is attributed to pipeline stages; a stage dominating a
    // class's column is where that class's ticks go.
    println!("\n== simulated ticks (lost slack of deadline-missing packets) ==");
    let Some(tr) = &report.trace else {
        println!("  (no trace section in the report — tracing disabled?)");
        return;
    };
    for c in &tr.classes {
        if c.delivered == 0 {
            continue;
        }
        println!(
            "\n  {:<12} delivered {:>8}   missed {:>6}   total miss {:>10} ns",
            c.class, c.delivered, c.missed, c.miss_ns
        );
        if c.missed == 0 {
            continue;
        }
        let attributed: u64 = c.stages.iter().map(|s| s.ns).sum();
        for s in &c.stages {
            if s.ns == 0 {
                continue;
            }
            let share = 100.0 * s.ns as f64 / attributed.max(1) as f64;
            println!(
                "    {:<16} {:>12} ns  {:>5.1}%  {}",
                s.stage,
                s.ns,
                share,
                "#".repeat((share / 4.0).round() as usize)
            );
        }
    }
    if tr.incomplete > 0 {
        println!(
            "\n  ({} missed deliveries had ring-truncated journeys and are counted, not attributed)",
            tr.incomplete
        );
    }
}
