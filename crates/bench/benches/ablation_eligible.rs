//! **Ablation — eligible time (§3.1/§3.2).**
//!
//! The paper proposes injecting a packet no earlier than
//! `deadline − 20 µs` to remove the injection bursts that cause order
//! errors downstream. This ablation runs the Advanced architecture at
//! full load with smoothing on and off and reports:
//!
//! * control latency (order errors downstream hurt it),
//! * take-over-queue admissions (a direct order-error count),
//! * video frame latency (smoothing is what pins it to the target).
//!
//! Run: `cargo bench -p dqos-bench --bench ablation_eligible`

use dqos_bench::{run_configs, BenchEnv};
use dqos_core::Architecture;

fn main() {
    let env = BenchEnv::from_env();
    let load = env.max_load();
    let cases = [("eligible 20 us (paper)", Some(20_000u64)), ("no eligible time", None)];
    let runs = run_configs(
        cases
            .iter()
            .map(|&(_, lead)| {
                let mut cfg = env.config(Architecture::Advanced2Vc, load);
                cfg.eligible_lead_ns = lead;
                cfg
            })
            .collect(),
    );
    println!(
        "=== Ablation: eligible-time smoothing (Advanced 2 VCs @ {:.0}% load, {} hosts) ===",
        load * 100.0,
        env.hosts
    );

    for ((label, _), (report, summary)) in cases.into_iter().zip(runs) {
        let control = report.class("Control").unwrap();
        let video = report.class("Multimedia").unwrap();
        println!("\n--- {label} ---");
        println!(
            "control: avg {:>8.2} us  p99 {:>8.2} us  max {:>8.2} us",
            control.packet_latency.mean() / 1e3,
            control.packet_latency.quantile(0.99) as f64 / 1e3,
            control.packet_latency.max() as f64 / 1e3
        );
        println!(
            "video:   avg frame {:>7.3} ms  p99 {:>7.3} ms  jitter {:>7.2} us",
            video.message_latency.mean() / 1e6,
            video.message_latency.quantile(0.99) as f64 / 1e6,
            video.jitter.mean_abs_delta() / 1e3
        );
        println!(
            "order errors (take-over admissions): {}  |  in-order violations: {}",
            summary.take_over_total, summary.out_of_order
        );
    }
    println!("\n(paper: without eligible time, more order errors; with it, video frames land on the target)");
}
