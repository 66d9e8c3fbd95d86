//! **Ablation — bisection bandwidth (spine count).**
//!
//! The paper's network is fully provisioned (8 uplinks per 8 hosts at
//! each leaf). Real clusters often oversubscribe the spine stage to save
//! switches; this ablation shrinks the spine count and watches which
//! guarantees survive. Expectation: VC0 (deadline-regulated, admission-
//! controlled) keeps its latency until the reserved traffic itself no
//! longer fits; best-effort throughput degrades first.
//!
//! Run: `cargo bench -p dqos-bench --bench ablation_spines`

use dqos_bench::{run_configs, throughput_gbps, BenchEnv};
use dqos_core::Architecture;
use dqos_topology::ClosParams;

fn main() {
    let env = BenchEnv::from_env();
    let load = env.max_load();
    let leaves = env.hosts / 8;
    let spine_counts = [8u16, 4, 2, 1];
    let runs = run_configs(
        spine_counts
            .iter()
            .map(|&spines| {
                let mut cfg = env.config(Architecture::Advanced2Vc, load);
                cfg.topology = ClosParams { hosts_per_leaf: 8, leaves, spines };
                cfg
            })
            .collect(),
    );
    println!(
        "=== Ablation: spine count ({} hosts, {} leaves, load {:.0}%, Advanced 2 VCs) ===\n",
        env.hosts,
        leaves,
        load * 100.0
    );
    println!(
        "{:>7} {:>8} {:>13} {:>13} {:>13} {:>13} {:>12}",
        "spines", "bisect", "ctrl avg us", "ctrl p99 us", "video avg ms", "BE Gb/s", "fallbacks"
    );
    for (spines, (report, summary)) in spine_counts.into_iter().zip(runs) {
        let c = report.class("Control").unwrap();
        let v = report.class("Multimedia").unwrap();
        println!(
            "{:>7} {:>7.0}% {:>13.2} {:>13.2} {:>13.3} {:>13.3} {:>12}",
            spines,
            spines as f64 / 8.0 * 100.0,
            c.packet_latency.mean() / 1e3,
            c.packet_latency.quantile(0.99) as f64 / 1e3,
            v.message_latency.mean() / 1e6,
            throughput_gbps(&report, "Best-effort"),
            summary.admission_fallbacks,
        );
    }
    println!(
        "\n(admission fallbacks > 0 mean the reserved video no longer fits the\n\
         bisection; below that point even regulated guarantees are best-effort)"
    );
}
