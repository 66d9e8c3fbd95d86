//! Quickstart: run the Table-1 workload on all four architectures at one
//! load point and print the per-class results side by side.
//!
//! ```text
//! cargo run --release --example quickstart [load] [hosts]
//! ```
//!
//! Defaults: load 1.0 (the paper's most interesting point), 32 hosts
//! (the fast preset; pass 128 for the paper-scale network).

use deadline_qos::core::Architecture;
use deadline_qos::netsim::presets::{cli_arg, scaled_bench};
use deadline_qos::netsim::run_one;

fn main() {
    let load: f64 = cli_arg(1, 1.0);
    let hosts: u16 = cli_arg(2, 32);

    println!(
        "deadline-qos quickstart: {hosts} hosts, offered load {:.0}%, Table-1 traffic mix",
        load * 100.0
    );
    println!();

    for arch in Architecture::ALL {
        let (report, summary) = run_one(scaled_bench(arch, load, hosts));
        println!("{}", report.to_table());
        println!(
            "  [{} events, {} pkts injected, {} delivered, {} out-of-order, {} take-overs]",
            summary.events,
            summary.injected_packets,
            summary.delivered_packets,
            summary.out_of_order,
            summary.take_over_total,
        );
        assert_eq!(summary.out_of_order, 0, "appendix guarantee violated");
        println!();
    }
}
