//! Reproducibility contract: a run is a pure function of its config —
//! and, since the partitioned runtime, of its config *only*: the worker
//! count must not change a single bit of the report.

use deadline_qos::core::Architecture;
use deadline_qos::faults::{FaultPlan, LinkImpairment, LinkSelector};
use deadline_qos::netsim::{Network, RunSummary, SimConfig, SimError, TraceSettings};
use deadline_qos::sim_core::{SimDuration, SimTime};
use deadline_qos::topology::{ClosParams, FoldedClos};
use deadline_qos::trace::export::jsonl_bytes;

fn cfg(seed: u64) -> SimConfig {
    let mut c = SimConfig::tiny(Architecture::Advanced2Vc, 0.4);
    c.warmup = SimDuration::from_us(300);
    c.measure = SimDuration::from_ms(1);
    c.seed = seed;
    c
}

#[test]
fn same_seed_same_everything() {
    let (r1, s1) = Network::new(cfg(42)).run();
    let (r2, s2) = Network::new(cfg(42)).run();
    assert_eq!(s1.events, s2.events);
    assert_eq!(s1.injected_packets, s2.injected_packets);
    assert_eq!(s1.take_over_total, s2.take_over_total);
    assert_eq!(r1.to_json(), r2.to_json());
}

#[test]
fn different_seed_different_traffic() {
    let (_, s1) = Network::new(cfg(1)).run();
    let (_, s2) = Network::new(cfg(2)).run();
    // Different arrival processes virtually guarantee different counts.
    assert_ne!(
        (s1.events, s1.injected_packets),
        (s2.events, s2.injected_packets),
        "seeds produced identical runs — RNG plumbing broken?"
    );
}

#[test]
fn truncated_run_is_prefix_deterministic() {
    let (ra, _) = Network::new(cfg(7)).run_truncated();
    let (rb, _) = Network::new(cfg(7)).run_truncated();
    assert_eq!(ra.to_json(), rb.to_json());
}

// ---------------------------------------------------------------------
// Serial/parallel equivalence matrix
// ---------------------------------------------------------------------

/// The fault scenarios the matrix crosses with every architecture and
/// seed. `None` = fault-free; the plans exercise the two fault paths
/// with distinct determinism hazards: epoch-fenced topology changes
/// (spine outage + repair → reroutes, drops, re-admissions) and
/// per-packet RNG draws (drop/corrupt impairment on a leaf↔spine link).
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

/// Every [`RunSummary`] field must agree between executors except
/// `peak_in_flight`, `peak_pending_events` and `partitions`: the first
/// two are per-partition high-water maxima (arena and calendar, marked
/// `aggregation: "per-partition-max"` in the summary JSON) whose values
/// legitimately shift with how the run was split, and the last *is*
/// the split width.
fn assert_summaries_match(a: &RunSummary, b: &RunSummary, label: &str) {
    assert_eq!(a.events, b.events, "{label}: events");
    assert_eq!(a.injected_packets, b.injected_packets, "{label}: injected");
    assert_eq!(a.delivered_packets, b.delivered_packets, "{label}: delivered");
    assert_eq!(a.out_of_order, b.out_of_order, "{label}: out_of_order");
    assert_eq!(a.broken_messages, b.broken_messages, "{label}: broken");
    assert_eq!(a.residual_packets, b.residual_packets, "{label}: residual");
    assert_eq!(a.take_over_total, b.take_over_total, "{label}: take_over");
    assert_eq!(a.order_errors, b.order_errors, "{label}: order_errors");
    assert_eq!(a.admission_fallbacks, b.admission_fallbacks, "{label}: fallbacks");
    assert_eq!(a.offered_messages, b.offered_messages, "{label}: offered");
    assert_eq!(a.dropped_packets, b.dropped_packets, "{label}: dropped");
    assert_eq!(a.corrupted_packets, b.corrupted_packets, "{label}: corrupted");
    assert_eq!(a.credits_lost, b.credits_lost, "{label}: credits_lost");
    assert_eq!(a.reroutes, b.reroutes, "{label}: reroutes");
    assert_eq!(a.reroute_rejections, b.reroute_rejections, "{label}: rejections");
    assert_eq!(a.readmissions, b.readmissions, "{label}: readmissions");
    assert_eq!(a.route_invalidations, b.route_invalidations, "{label}: invalidations");
}

fn run_at(workers: usize, base: SimConfig, plan: Option<&FaultPlan>) -> (String, RunSummary) {
    let mut c = base;
    c.workers = workers;
    let net = match plan {
        Some(p) => Network::with_faults(c, p),
        None => Network::new(c),
    };
    let (report, summary) = net.try_run().expect("matrix run completes");
    (report.to_json(), summary)
}

/// The tentpole's acceptance gate: serial (workers = 1) and parallel
/// (workers = 2, the most this 2-leaf topology partitions into) produce
/// byte-identical report JSON for every architecture × seed × fault
/// scenario.
#[test]
fn parallel_matches_serial_across_arch_seed_and_faults() {
    let topo = FoldedClos::build(cfg(0).topology);
    for arch in Architecture::ALL {
        for seed in [11u64, 222, 3_333] {
            for (fault_label, plan) in fault_scenarios(&topo) {
                let label = format!("{arch:?}/seed{seed}/{fault_label}");
                eprintln!("matrix: {label}");
                let mut base = cfg(seed);
                base.arch = arch;
                let (j1, s1) = run_at(1, base, plan.as_ref());
                let (j2, s2) = run_at(2, base, plan.as_ref());
                assert_eq!(j1, j2, "{label}: report JSON diverged");
                assert_summaries_match(&s1, &s2, &label);
            }
        }
    }
}

/// Four-way partitioning on a 4-leaf network, including an
/// oversubscribed worker count (clamped to the leaf count) and a
/// truncated run (horizon stops mid-flight).
#[test]
fn wider_partitioning_and_truncation_stay_exact() {
    let mut base = cfg(99);
    base.topology = ClosParams::scaled(32);
    let (j1, s1) = run_at(1, base, None);
    for workers in [2usize, 4, 64] {
        let (jw, sw) = run_at(workers, base, None);
        assert_eq!(j1, jw, "workers={workers}: report JSON diverged");
        assert_summaries_match(&s1, &sw, &format!("workers={workers}"));
    }
    let mut t1 = base;
    t1.workers = 1;
    let mut t4 = base;
    t4.workers = 4;
    let (r1, c1) = Network::new(t1).run_truncated();
    let (r4, c4) = Network::new(t4).run_truncated();
    assert_eq!(r1.to_json(), r4.to_json(), "truncated reports diverged");
    assert_eq!(c1.events, c4.events, "truncated event counts diverged");
}

/// The 8-worker row: a 64-host (8-leaf) network partitioned all the
/// way out, crossed with the fault scenarios and with tracing enabled —
/// the widest free-running configuration the matrix exercises. Reports
/// (trace section included) and exported trace bytes must match the
/// serial oracle bit for bit.
#[test]
fn eight_workers_match_serial_with_faults_and_tracing() {
    let mut base = cfg(77);
    base.topology = ClosParams::scaled(64);
    let topo = FoldedClos::build(base.topology);
    for (fault_label, plan) in fault_scenarios(&topo) {
        for trace_on in [false, true] {
            let label = format!("{fault_label}/trace={trace_on}");
            eprintln!("8-worker matrix: {label}");
            let mut c = base;
            if trace_on {
                c.trace = TraceSettings::on();
            }
            let run = |workers: usize| {
                let mut c = c;
                c.workers = workers;
                let net = match plan.as_ref() {
                    Some(p) => Network::with_faults(c, p),
                    None => Network::new(c),
                };
                let (report, summary, trace) =
                    net.try_run_traced().expect("matrix run completes");
                (report.to_json(), summary, jsonl_bytes(&trace))
            };
            let (j1, s1, t1) = run(1);
            let (j8, s8, t8) = run(8);
            assert_eq!(j1, j8, "{label}: report JSON diverged at 8 workers");
            assert_summaries_match(&s1, &s8, &label);
            assert_eq!(t1, t8, "{label}: trace bytes diverged at 8 workers");
            assert_eq!(s8.partitions, 8, "{label}: expected an 8-way split");
        }
    }
}

/// Calendar events carry no packets: a token on a wire waits in the
/// receiving link's FIFO and the arrival pops the oldest, so FIFO order
/// must equal arrival order on every link. Wire drops (which push
/// nothing), corruption, wires long enough to hold many tokens at once
/// (past the FIFO's inline cells), and partition-crossing links whose
/// tokens are queued at ring drain must all leave the report identical
/// to the serial run and conserve packets, at every worker count.
#[test]
fn wire_fifos_keep_arrival_order_under_drops_at_every_worker_count() {
    let mut base = cfg(91);
    base.topology = ClosParams::scaled(64);
    base.measure = SimDuration::from_us(500);
    // 400 ns of flight holds several short packets on one wire (up to
    // five in this run, so FIFOs spill past their two inline cells).
    base.wire_delay = SimDuration::from_ns(400);
    let p = base.topology;
    let mut plan = FaultPlan::new(0xF1F0);
    let lossy = |selector| LinkImpairment {
        selector,
        drop_prob: 0.03,
        corrupt_prob: 0.02,
        credit_loss_prob: 0.0,
    };
    for leaf in 0..p.leaves {
        plan = plan.impair(lossy(LinkSelector::LeafSpine { leaf, spine: leaf % p.spines }));
    }
    for host in [0u32, 9, 33, 63] {
        plan = plan.impair(lossy(LinkSelector::HostLink(host)));
    }
    let run = |workers: usize| {
        let mut c = base;
        c.workers = workers;
        let (report, summary) =
            Network::with_faults(c, &plan).try_run().expect("lossy run completes");
        summary.check().expect("conservation counts every drop and corruption");
        assert_eq!(summary.partitions, workers as u64);
        (report.to_json(), summary)
    };
    let (j1, s1) = run(1);
    assert!(
        s1.dropped_packets > 0 && s1.corrupted_packets > 0,
        "the plan must drop and corrupt ({} / {})",
        s1.dropped_packets,
        s1.corrupted_packets
    );
    for workers in [2, 4, 8] {
        let (j, s) = run(workers);
        let label = format!("{workers} workers");
        assert_eq!(j, j1, "{label}: report JSON diverged");
        assert_summaries_match(&s1, &s, &label);
    }
}

/// `peak_pending_events` is a diagnostic of the simulator, not of the
/// simulated network: it appears in the summary JSON with its
/// aggregation marker and never in the report.
#[test]
fn peak_pending_events_stays_out_of_the_report() {
    let mut c = cfg(12);
    c.workers = 2;
    let (report, summary) = Network::new(c).run();
    assert!(summary.peak_pending_events > 0);
    let report_json = report.to_json();
    assert!(!report_json.contains("peak_pending"), "diagnostic leaked into the report");
    let summary_json = summary.to_json_value().to_string_compact();
    assert!(summary_json.contains("peak_pending_events"), "{summary_json}");
    let back = RunSummary::from_json_value(&summary.to_json_value()).expect("roundtrip");
    assert_eq!(back.peak_pending_events, summary.peak_pending_events);
    // A serial run of the same config emits the identical report.
    c.workers = 1;
    assert_eq!(Network::new(c).run().0.to_json(), report_json);
}

/// A zero-lookahead neighbour configuration must be *rejected up
/// front* with [`SimError::Config`], not deadlock the safe-time
/// ratchet: with `wire_delay = credit_delay = 0` no partition edge can
/// ever promise its neighbours a minimum latency, so the free-running
/// executor has nothing to advance on.
#[test]
fn zero_lookahead_config_errors_instead_of_deadlocking() {
    let mut c = cfg(3);
    c.wire_delay = SimDuration::ZERO;
    c.credit_delay = SimDuration::ZERO;
    c.workers = 2;
    match Network::new(c).try_run() {
        Err(SimError::Config { detail }) => {
            assert!(
                detail.contains("lookahead"),
                "Config detail should name the zero-lookahead edge: {detail}"
            );
        }
        Err(e) => panic!("expected SimError::Config, got {e}"),
        Ok(_) => panic!("zero-lookahead parallel run succeeded — ratchet cannot be sound"),
    }
}

/// Random clock offsets must not perturb equivalence: local-time
/// translation happens inside partitions, TTDs cross between them.
#[test]
fn parallel_matches_serial_under_clock_offsets() {
    let mut base = cfg(5);
    base.clocks = deadline_qos::netsim::ClockOffsets::RandomUpTo(1_000_000);
    let (j1, s1) = run_at(1, base, None);
    let (j2, s2) = run_at(2, base, None);
    assert_eq!(j1, j2, "clock offsets broke serial/parallel equivalence");
    assert_summaries_match(&s1, &s2, "clock-offsets");
}
