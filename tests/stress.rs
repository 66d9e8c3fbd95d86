//! Adversarial configurations: tiny buffers, huge buffers, extreme
//! loads, degenerate workloads. Invariants (conservation, order,
//! losslessness, drain) must hold in all of them.

use deadline_qos::core::Architecture;
use deadline_qos::netsim::{Network, SimConfig};
use deadline_qos::sim_core::SimDuration;

fn check(cfg: SimConfig, label: &str) {
    let (_, summary) = Network::new(cfg).run();
    assert_eq!(
        summary.injected_packets, summary.delivered_packets,
        "{label}: conservation"
    );
    assert_eq!(summary.out_of_order, 0, "{label}: order");
    assert_eq!(summary.broken_messages, 0, "{label}: reassembly");
    assert_eq!(summary.residual_packets, 0, "{label}: drain");
}

fn base(arch: Architecture, load: f64) -> SimConfig {
    let mut cfg = SimConfig::tiny(arch, load);
    cfg.warmup = SimDuration::from_us(200);
    cfg.measure = SimDuration::from_ms(1);
    cfg
}

#[test]
fn minimal_buffers_one_mtu() {
    // A single MTU of buffer per VC: credits serialise everything, the
    // fabric crawls, but nothing breaks.
    for arch in Architecture::ALL {
        let mut cfg = base(arch, 0.5);
        cfg.switch_buffer_per_vc = 2048;
        check(cfg, &format!("{arch:?}/1-mtu-buffers"));
    }
}

#[test]
fn odd_buffer_size_not_mtu_aligned() {
    let mut cfg = base(Architecture::Advanced2Vc, 0.6);
    cfg.switch_buffer_per_vc = 5000; // 2 full packets + change
    check(cfg, "odd-buffer");
}

#[test]
fn deep_buffers() {
    let mut cfg = base(Architecture::Simple2Vc, 0.9);
    cfg.switch_buffer_per_vc = 1 << 20;
    check(cfg, "deep-buffers");
}

#[test]
fn tiny_mtu_fragments_everything() {
    // 256-byte MTU: every video frame becomes dozens of parts; message
    // reassembly and per-flow ordering get a workout.
    let mut cfg = base(Architecture::Advanced2Vc, 0.3);
    cfg.mtu = 256;
    check(cfg, "tiny-mtu");
}

#[test]
fn zero_wire_delay() {
    let mut cfg = base(Architecture::Ideal, 0.5);
    cfg.wire_delay = SimDuration::ZERO;
    cfg.credit_delay = SimDuration::ZERO;
    check(cfg, "zero-delays");
}

#[test]
fn slow_credits() {
    // Credit round-trip of 10 us >> serialisation time: throughput
    // collapses but invariants stand.
    let mut cfg = base(Architecture::Simple2Vc, 0.4);
    cfg.credit_delay = SimDuration::from_us(10);
    check(cfg, "slow-credits");
}

#[test]
fn sustained_overload() {
    // 100% offered on every host for a longer window: queues saturate
    // everywhere; the lossless fabric must neither drop nor reorder.
    for arch in [Architecture::Traditional2Vc, Architecture::Advanced2Vc] {
        let mut cfg = base(arch, 1.0);
        cfg.measure = SimDuration::from_ms(3);
        check(cfg, &format!("{arch:?}/overload"));
    }
}

#[test]
fn no_eligible_time_under_overload() {
    // Without smoothing, injection bursts maximise order errors — the
    // worst case for the take-over queue's invariants.
    let mut cfg = base(Architecture::Advanced2Vc, 1.0);
    cfg.eligible_lead_ns = None;
    check(cfg, "no-eligible-overload");
}

#[test]
fn many_seeds_conserve() {
    // A cheap randomised sweep over seeds: every run must conserve
    // packets.
    for seed in [1u64, 7, 42, 1337, 0xDEAD] {
        let mut cfg = base(Architecture::Advanced2Vc, 0.7);
        cfg.seed = seed;
        check(cfg, &format!("seed-{seed}"));
    }
}
