//! The paper-scale experiment: 128 endpoints, 16-port switches, 8 Gb/s
//! links, Table-1 traffic at a chosen load — §4's exact configuration.
//!
//! This is the slow, faithful run (tens of millions of events per
//! architecture); the figure benches default to a reduced instance. The
//! architectures are independent runs, spread over the host's cores.
//!
//! ```text
//! cargo run --release --example paper_scale [load] [arch]
//! # e.g.  cargo run --release --example paper_scale 1.0 advanced
//! ```

use deadline_qos::core::Architecture;
use deadline_qos::netsim::presets::cli_arg;
use deadline_qos::netsim::{run_one, SimConfig};
use deadline_qos::sim_core::{default_workers, par_map};

fn main() {
    let load: f64 = cli_arg(1, 1.0);
    let archs: Vec<Architecture> = match std::env::args().nth(2) {
        Some(s) => vec![Architecture::from_slug(&s).expect("arch: traditional|ideal|simple|advanced")],
        None => Architecture::ALL.to_vec(),
    };

    let example = SimConfig::paper(archs[0], load);
    println!(
        "running {} architecture(s) @ {:.0}% on the paper network (128 hosts, {} switches, {} window)...",
        archs.len(),
        load * 100.0,
        example.topology.n_switches(),
        example.measure
    );
    let workers = default_workers(archs.len());
    let runs = par_map(archs, workers, |arch| {
        let start = std::time::Instant::now();
        let (report, summary) = run_one(SimConfig::paper(arch, load));
        (report, summary, start.elapsed().as_secs_f64())
    });
    for (report, summary, wall_s) in runs {
        println!("{}", report.to_table());
        println!(
            "  [{} events in {:.1}s wall ({:.2}M ev/s), {} pkts, {} out-of-order, {} take-overs]\n",
            summary.events,
            wall_s,
            summary.events as f64 / wall_s / 1e6,
            summary.delivered_packets,
            summary.out_of_order,
            summary.take_over_total
        );
        assert_eq!(summary.out_of_order, 0);
    }
}
