//! Fault-matrix determinism smoke (wired into `scripts/check.sh`).
//!
//! One seed, three fault scenarios — a lossy link, a timed spine outage,
//! and per-node clock drift — each run twice, asserting the two runs are
//! byte-identical JSON. Plus the null case: an empty plan must be
//! indistinguishable from a simulation with no fault machinery at all.
//!
//! ```text
//! cargo run --release --example fault_matrix
//! ```

use deadline_qos::core::Architecture;
use deadline_qos::faults::{FaultPlan, LinkImpairment, LinkSelector, NodeRef};
use deadline_qos::netsim::presets::window_us;
use deadline_qos::netsim::{Network, SimConfig};
use deadline_qos::sim_core::SimTime;
use deadline_qos::topology::FoldedClos;

fn cfg() -> SimConfig {
    let mut c = window_us(SimConfig::tiny(Architecture::Advanced2Vc, 0.5), 500, 2_000);
    c.seed = 0x5EED;
    c
}

fn check_twice(label: &str, plan: &FaultPlan) {
    let (r1, s1) = Network::with_faults(cfg(), plan).try_run().expect(label);
    let (r2, s2) = Network::with_faults(cfg(), plan).try_run().expect(label);
    s1.check().expect(label);
    assert_eq!(s1.events, s2.events, "{label}: event counts diverged");
    assert_eq!(r1.to_json(), r2.to_json(), "{label}: reports diverged");
    println!(
        "PASS {label:<12} ({} events, {} dropped, {} corrupted, {} credits lost, {} reroutes)",
        s1.events, s1.dropped_packets, s1.corrupted_packets, s1.credits_lost, s1.reroutes
    );
}

fn main() {
    let topo = FoldedClos::build(cfg().topology);

    // Null case: empty plan == no fault machinery, bit for bit.
    let (r0, s0) = Network::new(cfg()).run();
    let (r1, s1) = Network::with_faults(cfg(), &FaultPlan::default()).run();
    assert_eq!(s0.events, s1.events, "empty plan changed the run");
    assert_eq!(r0.to_json(), r1.to_json(), "empty plan changed the report");
    assert!(r1.faults.is_none(), "empty plan grew a fault section");
    println!("PASS empty-plan   ({} events, bit-identical to Network::new)", s0.events);

    check_twice(
        "link-drop",
        &FaultPlan::new(1).impair(LinkImpairment {
            selector: LinkSelector::LeafSpine { leaf: 0, spine: 1 },
            drop_prob: 0.03,
            corrupt_prob: 0.02,
            credit_loss_prob: 0.0,
        }),
    );
    check_twice(
        "spine-down",
        &FaultPlan::new(2)
            .spine_down(SimTime::from_ms(1), 0, &topo)
            .spine_up(SimTime::from_us(1_800), 0, &topo),
    );
    check_twice(
        "clock-drift",
        &FaultPlan::new(3)
            .with_drift(NodeRef::Host(1), 150)
            .with_drift(NodeRef::Switch(2), -90),
    );
    println!("fault matrix: all scenarios deterministic");
}
