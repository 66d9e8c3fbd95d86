//! Tour of the flight recorder: trace a small run, explain where the
//! deadline misses lost their slack, and export the trace for offline
//! inspection.
//!
//! ```text
//! cargo run --release --example trace_tour [load] [arch]
//! # e.g.  cargo run --release --example trace_tour 1.0 simple
//! DQOS_TRACE=500000 cargo run --release --example trace_tour   # capacity knob
//! ```
//!
//! Writes `target/trace_tour.jsonl` (one event per line) and
//! `target/trace_tour_chrome.json` (open in `chrome://tracing` or
//! Perfetto: instant events per packet, counter tracks per node).

use deadline_qos::core::Architecture;
use deadline_qos::netsim::presets::{cli_arg, env_trace, scaled_tiny, window_us};
use deadline_qos::netsim::{Network, TraceSettings};
use deadline_qos::trace::{attribute, export, in_flight_series, STAGE_NAMES};

fn main() {
    let load: f64 = cli_arg(1, 1.0);
    let arch = match std::env::args().nth(2) {
        Some(s) => Architecture::from_slug(&s).expect("arch: traditional|ideal|simple|advanced"),
        None => Architecture::Simple2Vc,
    };

    // Tracing is an ordinary config field; `DQOS_TRACE` overrides the
    // default-on settings of this example (0 disables, N sets capacity).
    let mut cfg = window_us(scaled_tiny(arch, load, 16), 2_000, 2_000);
    cfg.trace = if std::env::var("DQOS_TRACE").is_ok() {
        env_trace()
    } else {
        TraceSettings::on()
    };

    println!(
        "tracing {} @ {:.0}% load (16 hosts, capacity {} events)...\n",
        arch.label(),
        load * 100.0,
        cfg.trace.capacity
    );
    let (report, summary, trace) = Network::new(cfg).run_traced();

    // The report's trace section is the per-class slack rollup; the raw
    // stream supports deeper passes.
    println!("{}", report.to_table());

    println!(
        "captured {} events ({} dropped past capacity) across {} delivered packets",
        trace.events.len(),
        trace.dropped,
        summary.delivered_packets
    );
    if let Some((at, peak)) = in_flight_series(&trace.events)
        .iter()
        .max_by_key(|(_, n)| *n)
    {
        println!("peak in-flight: {peak} packets at t={} ns", at.as_ns());
    }

    // Worst single miss, stage by stage — "where did the slack go?".
    let attribution = attribute(&trace.events);
    if let Some(worst) = attribution.packets.iter().max_by_key(|p| p.miss) {
        println!(
            "\nworst miss: packet {} (class {}) missed by {} ns with {} ns initial slack:",
            worst.pkt, worst.class, worst.miss, worst.initial_slack
        );
        for (name, ticks) in STAGE_NAMES.iter().zip(worst.stages.iter()) {
            if *ticks > 0 {
                println!("  {name:<16} {ticks:>12} ns");
            }
        }
    } else {
        println!("\nno deadline misses — every delivery was on time.");
    }

    std::fs::write("target/trace_tour.jsonl", export::jsonl_bytes(&trace))
        .expect("write target/trace_tour.jsonl");
    std::fs::write("target/trace_tour_chrome.json", export::chrome_bytes(&trace))
        .expect("write target/trace_tour_chrome.json");
    println!("\nwrote target/trace_tour.jsonl and target/trace_tour_chrome.json");
}
