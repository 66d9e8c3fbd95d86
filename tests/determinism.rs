//! Reproducibility contract: a run is a pure function of its config,
//! and what that function returns is pinned.
//!
//! The golden digests below are the 64-bit FNV-1a of
//! `Report::to_json()` (and, for traced runs, of the exported JSONL
//! trace), recorded from the simulator before its parallel executor was
//! removed — the runs that matrix proved identical at every worker
//! count. Any change to a report or a trace fails here; a change that
//! alters simulation results on purpose must re-record them and say why.

use deadline_qos::core::Architecture;
use deadline_qos::dqosd::journal::fnv1a;
use deadline_qos::faults::{FaultPlan, LinkImpairment, LinkSelector};
use deadline_qos::netsim::{Network, SimConfig, SimError, TraceSettings};
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
// Golden-digest matrix
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

fn network(c: SimConfig, plan: Option<&FaultPlan>) -> Network {
    match plan {
        Some(p) => Network::with_faults(c, p),
        None => Network::new(c),
    }
}

/// `(report digest, events)` of one run.
fn run_digest(c: SimConfig, plan: Option<&FaultPlan>) -> (u64, u64) {
    let (report, summary) = network(c, plan).try_run().expect("matrix run completes");
    (fnv1a(report.to_json().as_bytes()), summary.events)
}

/// `(architecture, seed, fault scenario, report digest, events)`.
const MATRIX: [(Architecture, u64, &str, u64, u64); 36] = [
    (Architecture::Traditional2Vc, 11, "none", 0x4ebc2dad52f8088f, 197963),
    (Architecture::Traditional2Vc, 11, "spine-down", 0x122772275704c151, 197922),
    (Architecture::Traditional2Vc, 11, "drop-impair", 0x638eda3543db7528, 197818),
    (Architecture::Traditional2Vc, 222, "none", 0x3d6fddff7c8b2df6, 182830),
    (Architecture::Traditional2Vc, 222, "spine-down", 0x72a6a7a9b6f2d69d, 182681),
    (Architecture::Traditional2Vc, 222, "drop-impair", 0xde96e0073ad0e9b6, 182675),
    (Architecture::Traditional2Vc, 3333, "none", 0x33c5f2b9d5d07fc9, 187153),
    (Architecture::Traditional2Vc, 3333, "spine-down", 0x078931e936f23d46, 186950),
    (Architecture::Traditional2Vc, 3333, "drop-impair", 0xf6bfe10e758cf00e, 186988),
    (Architecture::Ideal, 11, "none", 0x874c7e68e8d9aefe, 200224),
    (Architecture::Ideal, 11, "spine-down", 0x2a7dab226f5d5b99, 200219),
    (Architecture::Ideal, 11, "drop-impair", 0xa253ca2a03132a47, 200079),
    (Architecture::Ideal, 222, "none", 0xa04f2812e8cb73d5, 185039),
    (Architecture::Ideal, 222, "spine-down", 0x8fc34aff86e21b01, 184969),
    (Architecture::Ideal, 222, "drop-impair", 0xfd591ecc7d932eec, 184884),
    (Architecture::Ideal, 3333, "none", 0x92c65d97f6af9b3c, 189466),
    (Architecture::Ideal, 3333, "spine-down", 0xa499c29350f8efa0, 189400),
    (Architecture::Ideal, 3333, "drop-impair", 0x6f01e923f8eb1b3f, 189301),
    (Architecture::Simple2Vc, 11, "none", 0x0d48a8ed3d517b41, 200224),
    (Architecture::Simple2Vc, 11, "spine-down", 0x75fa9a092ba018df, 200219),
    (Architecture::Simple2Vc, 11, "drop-impair", 0xee73946af7c5cbac, 200079),
    (Architecture::Simple2Vc, 222, "none", 0x4d2c930e6963305a, 185039),
    (Architecture::Simple2Vc, 222, "spine-down", 0xc3a4de9fb9adf213, 184981),
    (Architecture::Simple2Vc, 222, "drop-impair", 0x43497aaaefd30b19, 184884),
    (Architecture::Simple2Vc, 3333, "none", 0x3807437fadc17350, 189466),
    (Architecture::Simple2Vc, 3333, "spine-down", 0x3d12a3ad85a6122c, 189390),
    (Architecture::Simple2Vc, 3333, "drop-impair", 0xeeafb15b2a67ba25, 189301),
    (Architecture::Advanced2Vc, 11, "none", 0x41a95067f54824d7, 200224),
    (Architecture::Advanced2Vc, 11, "spine-down", 0x7587bc2711fb8695, 200219),
    (Architecture::Advanced2Vc, 11, "drop-impair", 0xc334db4b84082fcf, 200079),
    (Architecture::Advanced2Vc, 222, "none", 0xeae6a2d6846b6bab, 185039),
    (Architecture::Advanced2Vc, 222, "spine-down", 0x237ad5a8df78f13e, 184969),
    (Architecture::Advanced2Vc, 222, "drop-impair", 0x8dab18cac8a2624e, 184884),
    (Architecture::Advanced2Vc, 3333, "none", 0x35d709eb460b3a4d, 189466),
    (Architecture::Advanced2Vc, 3333, "spine-down", 0x7cb5ff9a137e6594, 189400),
    (Architecture::Advanced2Vc, 3333, "drop-impair", 0x574dfef9a30580c2, 189301),
];

/// Every architecture × seed × fault scenario reproduces its recorded
/// report byte for byte.
#[test]
fn reports_match_golden_digests_across_arch_seed_and_faults() {
    let topo = FoldedClos::build(cfg(0).topology);
    let scenarios = fault_scenarios(&topo);
    for (arch, seed, fault_label, digest, events) in MATRIX {
        let label = format!("{arch:?}/seed{seed}/{fault_label}");
        let plan = scenarios
            .iter()
            .find(|(l, _)| *l == fault_label)
            .map(|(_, p)| p.as_ref())
            .expect("matrix names a known scenario");
        let mut c = cfg(seed);
        c.arch = arch;
        assert_eq!(run_digest(c, plan), (digest, events), "{label}: report diverged");
    }
}

/// Random clock offsets: local-time translation happens inside the
/// models, TTDs cross between them, and the report is still the
/// recorded one.
#[test]
fn clock_offsets_match_golden_digest() {
    let mut c = cfg(5);
    c.clocks = deadline_qos::netsim::ClockOffsets::RandomUpTo(1_000_000);
    assert_eq!(run_digest(c, None), (0x6cb536381d7e960c, 195_240));
}

/// A 4-leaf network, run to drain and truncated at the window end (the
/// horizon stops mid-flight). The statistics window closes before the
/// drain, so both runs report the same figures.
#[test]
fn wider_network_and_truncation_match_golden_digests() {
    let mut c = cfg(99);
    c.topology = ClosParams::scaled(32);
    assert_eq!(run_digest(c, None), (0xe9c2f8d8ede65f1e, 434_361));
    let (report, summary) = Network::new(c).run_truncated();
    assert_eq!(
        (fnv1a(report.to_json().as_bytes()), summary.events),
        (0xe9c2f8d8ede65f1e, 400_887),
        "truncated run diverged"
    );
}

/// A 64-host (8-leaf) network crossed with the fault scenarios and with
/// tracing off and on: reports (trace section included) and exported
/// trace bytes reproduce their recorded digests.
#[test]
fn traced_fault_runs_match_golden_report_and_trace_digests() {
    // `(scenario, traced, report digest, trace digest, events)`.
    const GOLDEN: [(&str, bool, u64, u64, u64); 6] = [
        ("none", false, 0x6f3e54d0a103b23b, 0xcbf29ce484222325, 908971),
        ("none", true, 0xf74cee501a9ca67a, 0x3797668db5babbc8, 908971),
        ("spine-down", false, 0xf3153768b4790fda, 0xcbf29ce484222325, 908846),
        ("spine-down", true, 0xae4421d41ca174d6, 0x670281f6ce5378f3, 908846),
        ("drop-impair", false, 0xcd15f2bbc35f83a0, 0xcbf29ce484222325, 908721),
        ("drop-impair", true, 0x42d40c4c5c255a4c, 0xbfe8cf06601ca9db, 908721),
    ];
    let mut base = cfg(77);
    base.topology = ClosParams::scaled(64);
    let topo = FoldedClos::build(base.topology);
    let scenarios = fault_scenarios(&topo);
    for (fault_label, traced, report_digest, trace_digest, events) in GOLDEN {
        let label = format!("{fault_label}/trace={traced}");
        eprintln!("64-host matrix: {label}");
        let plan = scenarios.iter().find(|(l, _)| *l == fault_label).and_then(|(_, p)| p.as_ref());
        let mut c = base;
        if traced {
            c.trace = TraceSettings::on();
        }
        let (report, summary, trace) =
            network(c, plan).try_run_traced().expect("matrix run completes");
        assert_eq!(trace.is_empty(), !traced, "{label}");
        assert_eq!(
            (fnv1a(report.to_json().as_bytes()), fnv1a(&jsonl_bytes(&trace)), summary.events),
            (report_digest, trace_digest, events),
            "{label}: report or trace diverged"
        );
    }
}

/// Calendar events carry no packets: a token on a wire waits in the
/// receiving link's FIFO and the arrival pops the oldest, so FIFO order
/// must equal arrival order on every link. Wire drops (which push
/// nothing), corruption and wires long enough to hold many tokens at
/// once (past the FIFO's inline cells) must all conserve packets and
/// leave the report at its recorded digest.
#[test]
fn wire_fifos_keep_arrival_order_under_drops() {
    let mut c = cfg(91);
    c.topology = ClosParams::scaled(64);
    c.measure = SimDuration::from_us(500);
    // 400 ns of flight holds several short packets on one wire (up to
    // five in this run, so FIFOs spill past their two inline cells).
    c.wire_delay = SimDuration::from_ns(400);
    let p = c.topology;
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
    let (report, summary) = Network::with_faults(c, &plan).try_run().expect("lossy run completes");
    summary.check().expect("conservation counts every drop and corruption");
    assert_eq!((summary.dropped_packets, summary.corrupted_packets), (387, 224));
    assert_eq!(
        (fnv1a(report.to_json().as_bytes()), summary.events),
        (0xef4dd4ba65e859de, 567_115),
        "report diverged"
    );
}

/// `peak_pending_events` is a diagnostic of the simulator, not of the
/// simulated network: the run summary counts it and the report never
/// carries it.
#[test]
fn peak_pending_events_stays_out_of_the_report() {
    let (report, summary) = Network::new(cfg(12)).run();
    assert!(summary.peak_pending_events > 0);
    let report_json = report.to_json();
    assert!(!report_json.contains("peak_pending"), "diagnostic leaked into the report");
}

/// A run is one event loop: any `workers` other than 1 is rejected up
/// front with [`SimError::Config`], and `run` panics with that message.
#[test]
fn workers_other_than_one_is_a_config_error() {
    for workers in [0usize, 2, 8] {
        let mut c = cfg(3);
        c.workers = workers;
        match Network::new(c).try_run() {
            Err(SimError::Config { detail }) => {
                assert!(detail.contains("workers"), "detail should name the field: {detail}");
            }
            Err(e) => panic!("workers={workers}: expected SimError::Config, got {e}"),
            Ok(_) => panic!("workers={workers}: run succeeded"),
        }
        let panic = std::panic::catch_unwind(move || Network::new(c).run());
        assert!(panic.is_err(), "workers={workers}: run must panic");
    }
}
