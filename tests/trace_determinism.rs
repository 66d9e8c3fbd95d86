//! The flight recorder's two contracts, end to end:
//!
//! 1. **Observation changes nothing.** Enabling tracing must leave the
//!    Report (minus its `trace` section) bit-identical to an untraced
//!    run, for every architecture × seed × fault scenario the
//!    determinism matrix covers.
//! 2. **The trace itself is deterministic.** Same seed + same fault plan
//!    ⇒ byte-identical exported trace, including under ring-capacity
//!    truncation; the exported bytes are pinned to golden digests (see
//!    `tests/determinism.rs` for where those come from).
//!
//! Plus the attribution identity on real traffic: every deadline-missing
//! packet's stage spans sum exactly (in ticks) to its observed miss.

use deadline_qos::core::Architecture;
use deadline_qos::dqosd::journal::fnv1a;
use deadline_qos::faults::{FaultPlan, LinkImpairment, LinkSelector};
use deadline_qos::netsim::{Network, SimConfig, Trace, TraceSettings};
use deadline_qos::sim_core::{SimDuration, SimTime};
use deadline_qos::stats::Report;
use deadline_qos::topology::{ClosParams, FoldedClos};
use deadline_qos::trace::export::jsonl_bytes;

fn cfg(seed: u64) -> SimConfig {
    let mut c = SimConfig::tiny(Architecture::Advanced2Vc, 0.4);
    c.warmup = SimDuration::from_us(300);
    c.measure = SimDuration::from_ms(1);
    c.seed = seed;
    c
}

/// The same fault scenarios as `tests/determinism.rs`.
fn fault_scenarios(topo: &FoldedClos) -> Vec<(&'static str, Option<FaultPlan>)> {
    vec![
        ("none", None),
        (
            "spine-down",
            Some(
                FaultPlan::new(0xD0)
                    .spine_down(SimTime::from_us(600), 0, topo)
                    .spine_up(SimTime::from_us(1_100), 0, topo),
            ),
        ),
        (
            "drop-impair",
            Some(FaultPlan::new(0xD1).impair(LinkImpairment {
                selector: LinkSelector::LeafSpine { leaf: 0, spine: 1 },
                drop_prob: 0.02,
                corrupt_prob: 0.01,
                credit_loss_prob: 0.0,
            })),
        ),
    ]
}

fn run_traced(mut c: SimConfig, trace: TraceSettings, plan: Option<&FaultPlan>) -> (Report, Trace) {
    c.trace = trace;
    let net = match plan {
        Some(p) => Network::with_faults(c, p),
        None => Network::new(c),
    };
    let (report, _, trace) = net.try_run_traced().expect("traced run completes");
    (report, trace)
}

/// Strip the trace section so traced and untraced reports compare equal.
fn json_minus_trace(mut report: Report) -> String {
    report.trace = None;
    report.to_json()
}

/// Contract 1 over the full determinism matrix: tracing on vs off gives
/// the same Report bits, for every arch × seed × fault combination, and
/// a second traced run exports the same trace bytes.
#[test]
fn tracing_never_perturbs_reports_across_the_matrix() {
    let topo = FoldedClos::build(cfg(0).topology);
    for arch in Architecture::ALL {
        for seed in [11u64, 222, 3_333] {
            for (fault_label, plan) in fault_scenarios(&topo) {
                let mut base = cfg(seed);
                base.arch = arch;
                let cell = format!("{arch:?}/seed{seed}/{fault_label}");
                eprintln!("trace matrix: {cell}");
                let (plain, empty) = run_traced(base, TraceSettings::OFF, plan.as_ref());
                assert!(empty.is_empty(), "{cell}: untraced run captured events");
                assert!(plain.trace.is_none(), "{cell}: untraced report has section");
                let mut traces: Vec<Vec<u8>> = Vec::new();
                for _ in 0..2 {
                    let (traced, trace) = run_traced(base, TraceSettings::on(), plan.as_ref());
                    assert!(!trace.is_empty(), "{cell}: traced run captured nothing");
                    assert!(traced.trace.is_some(), "{cell}: traced report lacks section");
                    assert_eq!(
                        json_minus_trace(traced),
                        plain.to_json(),
                        "{cell}: tracing changed the report"
                    );
                    traces.push(jsonl_bytes(&trace));
                }
                // Contract 2 rides along: a repeated run exports the
                // same trace bytes.
                assert_eq!(traces[0], traces[1], "{cell}: trace diverged between runs");
            }
        }
    }
}

/// Contract 2 on a 4-leaf network with a fault plan active, with the
/// default ring and with a deliberately tight one (drop-newest
/// truncation keeps an exact prefix): the exported bytes reproduce
/// their golden digests.
#[test]
fn trace_bytes_match_golden_digests() {
    let mut base = cfg(99);
    base.topology = ClosParams::scaled(32);
    let topo = FoldedClos::build(base.topology);
    let plan = FaultPlan::new(0xD0)
        .spine_down(SimTime::from_us(600), 0, &topo)
        .spine_up(SimTime::from_us(1_100), 0, &topo);
    // `(settings, trace digest, events kept, events dropped)`.
    let golden = [
        (TraceSettings::on(), 0xc6f4595209f5a79b, 409_034, 0),
        (TraceSettings::with_capacity(2_000), 0x5eb052c3d9f80aaa, 2_000, 407_034),
    ];
    for (settings, digest, kept, dropped) in golden {
        let (_, t) = run_traced(base, settings, Some(&plan));
        assert_eq!(
            (fnv1a(&jsonl_bytes(&t)), t.events.len(), t.dropped),
            (digest, kept, dropped),
            "cap {}: trace diverged",
            settings.capacity
        );
    }
}

/// The attribution identity on real traffic (not a hand-built stream):
/// per packet and per class, `Σ stage ticks − initial slack == miss`,
/// and the attribution's delivery count matches the simulator's.
#[test]
fn slack_attribution_sums_exactly_on_real_runs() {
    for (arch, load) in [(Architecture::Advanced2Vc, 1.0), (Architecture::Simple2Vc, 0.9)] {
        let mut c = SimConfig::tiny(arch, load);
        c.warmup = SimDuration::from_us(300);
        c.measure = SimDuration::from_ms(1);
        c.trace = TraceSettings::on();
        let (report, summary, trace) = Network::new(c).run_traced();
        assert!(trace.dropped == 0, "capacity must cover the whole tiny run");
        let a = deadline_qos::trace::attribute(&trace.events);
        assert_eq!(a.orphan_events, 0);
        assert_eq!(a.incomplete, 0);
        assert_eq!(
            a.classes.iter().map(|c| c.delivered).sum::<u64>(),
            summary.delivered_packets,
            "{arch:?}: attribution saw every delivery"
        );
        for p in &a.packets {
            assert_eq!(
                p.total() as i64 - p.initial_slack,
                p.miss as i64,
                "{arch:?}: packet {} identity broken",
                p.pkt
            );
        }
        for c in &a.classes {
            assert_eq!(
                c.stage_total() as i64 - c.initial_slack_ticks,
                c.miss_ticks as i64,
                "{arch:?}: class identity broken"
            );
        }
        // The report section is the same rollup.
        let section = report.trace.expect("traced run produces a report section");
        assert_eq!(section.incomplete, 0);
        assert_eq!(section.events, trace.events.len() as u64);
        for rc in &section.classes {
            assert_eq!(
                rc.stage_total_ns() as i64 - rc.initial_slack_ns,
                rc.miss_ns as i64,
                "{arch:?}/{}: report rollup identity broken",
                rc.class
            );
        }
    }
}
