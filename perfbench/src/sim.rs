//! The simulator workloads: `paper128_adv` and `clos16_trad`.
//!
//! A *request* of a simulator workload is one simulation run
//! (`Network::run` plus its correctness check) — the unit a user of the
//! simulator waits for, e.g. one point of a load sweep. `Network::new` is
//! the set-up and is timed on its own.

use crate::host::{cpu_s, fnv1a, median, peak_rss_mib, quantile, HostSpeed};
use crate::{layers, per_layer_metrics, Budget, Outcome, Workload};
use dqos_core::Architecture;
use dqos_netsim::{Network, RunSummary, SimConfig, TraceSettings};
use dqos_sim_core::SimDuration;
use dqos_stats::Report;
use dqos_topology::ClosParams;
use dqos_trace::{Event, EventKind, Trace};
use std::fmt::Write as _;
use std::time::Instant;

/// Trace capacity of the ledger's traced run. Holds a whole
/// `paper128_adv` run; a longer run keeps this prefix and its per-kind
/// counts are scaled (see [`TraceCounts::scale`]).
const TRACE_CAPACITY: u32 = 1 << 22;

/// The workload's simulation config for `seed` (always serial, untraced).
pub fn config(w: Workload, seed: u64, short: bool) -> SimConfig {
    let mut c = match w {
        Workload::Paper128Adv => {
            let mut c = SimConfig::paper(Architecture::Advanced2Vc, 1.0);
            let half = if short { 50 } else { 500 };
            c.warmup = SimDuration::from_us(half);
            c.measure = SimDuration::from_us(half);
            c
        }
        Workload::Clos16Trad => {
            let mut c = SimConfig::paper(Architecture::Traditional2Vc, 0.4);
            c.topology = ClosParams::scaled(16);
            if short {
                c.warmup = SimDuration::from_ms(1);
                c.measure = SimDuration::from_ms(2);
            }
            c
        }
        Workload::DqosdChurn => unreachable!("dqosd_churn runs no simulation"),
    };
    c.seed = seed;
    c.workers = 1;
    c.trace = TraceSettings::OFF;
    c
}

/// Extra `Network::new` calls made before each run, only to sample
/// set-up time. Spreading them over the whole run, instead of a burst at
/// its start, lets the median see the same host phases as the runs.
fn extra_setups_per_run(w: Workload, short: bool) -> usize {
    match (w, short) {
        (Workload::Clos16Trad, false) => 4,
        _ => 0,
    }
}

/// Distinct seeds a run cycles through: one run's figures cover several
/// traffic matrices (their work and memory differ by a few per cent), and
/// every seed after the first pass must reproduce its first report.
const SUB_SEEDS: u64 = 4;

/// Seed of the `k`-th traffic matrix of a run with `seed` (`k = 0` is
/// `seed` itself).
fn sub_seed(seed: u64, k: u64) -> u64 {
    if k == 0 {
        seed
    } else {
        dqos_sim_core::SimRng::new(seed).fork(k).next_u64()
    }
}

/// Everything a run is checked against.
fn run_digest(report: &Report, s: &RunSummary) -> (u64, u64, u64, u64) {
    (
        fnv1a(report.to_json().as_bytes()),
        s.events,
        s.delivered_packets,
        s.injected_packets,
    )
}

/// Untraced end-to-end measurement: sample set-up time, then repeat runs
/// over the run's seeds until the budget is spent. Every run must pass
/// `RunSummary::check` and reproduce its seed's first report exactly.
/// Set-ups and runs are timed in this thread's on-CPU seconds and scaled
/// to reference seconds by the host-speed passes on either side of each
/// run ([`HostSpeed`]); the unscaled CPU times are printed beside them.
pub fn measure(w: Workload, seed: u64, budget: Budget) -> Outcome {
    let cfgs: Vec<SimConfig> = (0..SUB_SEEDS)
        .map(|k| config(w, sub_seed(seed, k), budget.short))
        .collect();
    let window_ns = cfgs[0].window_end().as_ns() as f64;
    let mut out = Outcome::default();

    let mut setup_s = Vec::new();
    let mut run_s = Vec::new();
    let mut raw_run_s = Vec::new();
    let mut raw_setup_s = Vec::new();
    let mut first: Vec<Option<(u64, u64, u64, u64)>> = vec![None; cfgs.len()];
    let mut summary = RunSummary::default();
    let mut speed = HostSpeed::start(cpu_s);
    let start = Instant::now();
    while run_s.len() < budget.min_reps || start.elapsed().as_secs_f64() < budget.seconds {
        let k = run_s.len() % cfgs.len();
        let mut setups = Vec::new();
        for _ in 0..extra_setups_per_run(w, budget.short) {
            let t = cpu_s();
            let net = Network::new(cfgs[k]);
            setups.push(cpu_s() - t);
            drop(net);
        }
        let t0 = cpu_s();
        let net = Network::new(cfgs[k]);
        let t1 = cpu_s();
        let result = net.try_run();
        let t2 = cpu_s();
        setups.push(t1 - t0);
        let f = speed.factor();
        setup_s.extend(setups.iter().map(|s| s * f));
        raw_setup_s.extend(setups);
        raw_run_s.push(t2 - t1);
        run_s.push((t2 - t1) * f);
        out.attempted += 1;
        let ok = match result {
            Ok((report, s)) => {
                if k == 0 {
                    summary = s;
                }
                let d = run_digest(&report, &s);
                let same = *first[k].get_or_insert(d) == d;
                s.check().is_ok() && same
            }
            Err(_) => false,
        };
        out.failed += !ok as u64;
    }

    let total: f64 = run_s.iter().sum();
    let rates: Vec<f64> = run_s.iter().map(|s| window_ns / s).collect();
    out.metric("sim_ns_per_s", median(&rates), "ns/s");
    out.metric("setup_s", median(&setup_s), "s");
    out.metric("peak_rss_mb", peak_rss_mib() - speed.resident_mib, "MiB");
    out.metric("requests_per_s", run_s.len() as f64 / total, "1/s");
    out.metric("request_p50_us", median(&run_s) * 1e6, "us");
    out.metric("request_p99_us", quantile(&run_s, 0.99) * 1e6, "us");

    let (report_digest, events, delivered, injected) = first[0].unwrap_or_default();
    out.counts = vec![
        ("events", events),
        ("delivered_packets", delivered),
        ("injected_packets", injected),
        ("offered_messages", summary.offered_messages),
        ("report_digest", report_digest),
    ];
    let _ = writeln!(
        out.report,
        "{}: {} runs of {:.3} ms simulated over {} seeds ({} hosts, {}), {} set-up samples\n  \
         run s (reference): {}\n  run s (on-CPU): {}\n  host-speed pass s: {}\n  \
         unscaled: {:.0} sim ns/s, set-up {:.6} s; host-speed loop resident {:.2} MiB",
        w.name(),
        run_s.len(),
        window_ns / 1e6,
        cfgs.len().min(run_s.len()),
        cfgs[0].topology.n_hosts(),
        cfgs[0].arch.slug(),
        setup_s.len(),
        secs(&run_s),
        secs(&raw_run_s),
        secs(&speed.passes),
        window_ns / median(&raw_run_s),
        median(&raw_setup_s),
        speed.resident_mib
    );
    out
}

/// Seconds to three decimals, space-separated.
fn secs(xs: &[f64]) -> String {
    xs.iter()
        .map(|s| format!("{s:.3}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Per-kind event counts of a traced run.
#[derive(Debug, Default, Clone, Copy)]
pub struct TraceCounts {
    /// Packets stamped at sources.
    pub stamped: u64,
    /// Packets put on host links.
    pub injected: u64,
    /// Crossbar grants (one per packet-hop).
    pub grants: u64,
    /// Grants served from the take-over queue.
    pub take_over: u64,
    /// Packets delivered.
    pub delivered: u64,
    /// Switch occupancy samples.
    pub switch_samples: u64,
    /// Sum of `queued` over switch samples.
    pub switch_queued: u64,
    /// Sum of stamped packet lengths.
    pub stamped_bytes: u64,
    /// Time-weighted mean packets in flight (injected, not delivered).
    pub mean_in_flight: f64,
}

impl TraceCounts {
    /// Count `trace`'s events by kind (switch samples are those of nodes
    /// numbered `n_hosts` and up).
    pub fn of(trace: &Trace, n_hosts: u32) -> TraceCounts {
        let mut c = TraceCounts::default();
        for e in &trace.events {
            match e.kind {
                EventKind::Stamped { len, .. } => {
                    c.stamped += 1;
                    c.stamped_bytes += len as u64;
                }
                EventKind::Injected => c.injected += 1,
                EventKind::HopArbitrate { take_over, .. } => {
                    c.grants += 1;
                    c.take_over += take_over as u64;
                }
                EventKind::Delivered => c.delivered += 1,
                EventKind::Sample { queued, .. } if e.node >= n_hosts => {
                    c.switch_samples += 1;
                    c.switch_queued += queued as u64;
                }
                _ => {}
            }
        }
        c.mean_in_flight = mean_in_flight(&trace.events);
        c
    }

    /// When the ring truncated the trace, scale the per-hop counts from
    /// the kept prefix to the whole run by its injected packets (the
    /// summary's exact count over the prefix's). Returns the factor.
    pub fn scale(&mut self, trace: &Trace, summary: &RunSummary) -> f64 {
        if trace.dropped == 0 || self.injected == 0 {
            return 1.0;
        }
        let f = summary.injected_packets as f64 / self.injected as f64;
        for v in [
            &mut self.stamped,
            &mut self.grants,
            &mut self.take_over,
            &mut self.stamped_bytes,
        ] {
            *v = (*v as f64 * f).round() as u64;
        }
        self.injected = summary.injected_packets;
        self.delivered = summary.delivered_packets;
        f
    }
}

/// Time-weighted mean of the in-flight packet count over the trace.
fn mean_in_flight(events: &[Event]) -> f64 {
    let series = dqos_trace::in_flight_series(events);
    let (Some(first), Some(last)) = (series.first(), series.last()) else {
        return 0.0;
    };
    let span = last.0.since(first.0).as_ns();
    if span == 0 {
        return 0.0;
    }
    let area: f64 = series
        .windows(2)
        .map(|w| w[0].1 as f64 * w[1].0.since(w[0].0).as_ns() as f64)
        .sum();
    area / span as f64
}

/// One row of the where-the-time-goes ledger.
struct Row {
    layer: &'static str,
    ops: u64,
    ns_per_op: f64,
}

/// The traced run: untraced reference run, traced run of the same
/// config, per-kind op counts, per-layer timings on op mixes taken from
/// the run, and the ledger `Σ ops × ns/op` against the untraced wall.
pub fn ledger(w: Workload, seed: u64, budget: Budget) -> Outcome {
    let cfg = config(w, seed, budget.short);
    let mut out = Outcome::default();

    let t = Instant::now();
    let net = Network::new(cfg);
    let new_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let untraced = net.try_run();
    let wall_u = t.elapsed().as_secs_f64();

    let mut tcfg = cfg;
    tcfg.trace = TraceSettings::with_capacity(TRACE_CAPACITY);
    let net = Network::new(tcfg);
    let t = Instant::now();
    let traced = net.try_run_traced();
    let wall_t = t.elapsed().as_secs_f64();

    out.attempted = 3;
    let (report_u, sum) = match untraced {
        Ok(r) => r,
        Err(e) => {
            out.failed = 3;
            out.report = format!("untraced run failed: {e}\n");
            per_layer_metrics(&mut out, &[]);
            return out;
        }
    };
    out.failed += sum.check().is_err() as u64;
    let (mut report_t, sum_t, trace) = match traced {
        Ok(r) => r,
        Err(e) => {
            out.failed += 2;
            out.report = format!("traced run failed: {e}\n");
            per_layer_metrics(&mut out, &[]);
            return out;
        }
    };
    // Tracing must not change results: the traced report without its
    // trace section is byte-identical to the untraced one.
    report_t.trace = None;
    out.failed += (report_t.to_json() != report_u.to_json() || sum_t.events != sum.events) as u64;

    let n_hosts = cfg.topology.n_hosts();
    let mut c = TraceCounts::of(&trace, n_hosts);
    // Untruncated, the trace's own counts must equal the summary's.
    let counts_agree = trace.dropped > 0
        || (c.injected == sum.injected_packets && c.delivered == sum.delivered_packets);
    out.failed += !counts_agree as u64;
    let scale = c.scale(&trace, &sum);
    let (kept, recorded) = (trace.events.len(), trace.recorded);
    drop(trace);

    // Op mixes from the run.
    let ports = cfg.topology.radix() as f64;
    let per_port = c.switch_queued as f64 / c.switch_samples.max(1) as f64 / ports;
    let buffer_occupancy = (per_port.round() as usize).clamp(1, 8);
    let take_over_share = c.take_over as f64 / c.grants.max(1) as f64;
    let mean_len = c.stamped_bytes / c.stamped.max(1);
    // Pending events: one per packet in flight plus the hosts' Poisson
    // and ON/OFF generators (near), and one per video stream's frame
    // generator (far, a frame period ahead).
    let near = c.mean_in_flight.round() as usize + 3 * n_hosts as usize;
    let far = n_hosts as usize * cfg.mix.video_streams_per_host() as usize;
    let frame_ns = cfg.mix.video_frame_period.as_ns();

    let slice = if budget.short {
        0.01
    } else {
        budget.seconds * 0.5 / 11.0
    };
    let queue_ns = layers::calendar_hold(near, far, 2 * mean_len.max(64), 2 * frame_ns, slice);
    let ring_ns = layers::ring_record(slice);
    let twoq_ns = layers::two_queue_op(buffer_occupancy, take_over_share, slice);
    let fifo_ns = layers::fifo_op(buffer_occupancy, slice);
    let switch_ns = layers::switch_packet(cfg.arch, take_over_share, slice);
    let nic_ns = layers::nic_packet(cfg.arch, slice);
    let sink_ns = layers::sink_packet(slice);
    let stamp_ns = layers::stamp_packet(slice);
    let admit_us = layers::admission_pair_us(cfg.topology, slice);
    let topo_ms = layers::topology_build_ms(cfg.topology, slice);
    let traffic_ns = layers::traffic_message(&cfg.mix, cfg.topology, slice);
    let hist_ns = layers::hist_record(slice);

    let hist_records: u64 = report_u
        .classes
        .iter()
        .map(|k| k.packet_latency.count() + k.message_latency.count())
        .sum();
    let stamped = if cfg.arch.uses_deadlines() {
        c.stamped
    } else {
        0
    };
    let rows = [
        Row {
            layer: "sim-core::queue (calendar)",
            ops: sum.events,
            ns_per_op: queue_ns,
        },
        Row {
            layer: "switch (incl. queues::flat)",
            ops: c.grants,
            ns_per_op: switch_ns,
        },
        Row {
            layer: "endhost::nic",
            ops: sum.injected_packets,
            ns_per_op: nic_ns,
        },
        Row {
            layer: "endhost::sink",
            ops: sum.delivered_packets,
            ns_per_op: sink_ns,
        },
        Row {
            layer: "core::deadline (stamp)",
            ops: stamped,
            ns_per_op: stamp_ns,
        },
        Row {
            layer: "traffic (emit)",
            ops: sum.offered_messages,
            ns_per_op: traffic_ns,
        },
        Row {
            layer: "stats::hist (record)",
            ops: hist_records,
            ns_per_op: hist_ns,
        },
    ];
    let wall_ns = wall_u * 1e9;
    let explained: f64 = rows.iter().map(|r| r.ops as f64 * r.ns_per_op).sum();
    let unexplained = 1.0 - explained / wall_ns;

    let _ = writeln!(
        out.report,
        "{} ledger (seed {seed}): untraced run {:.3} s, traced {:.3} s, Network::new {:.1} ms",
        w.name(),
        wall_u,
        wall_t,
        new_ms
    );
    let _ = writeln!(
        out.report,
        "  trace: {} events kept of {} recorded (per-hop counts scaled x{scale:.3}); summary: {} events, {} injected, {} delivered",
        kept,
        recorded,
        sum.events,
        sum.injected_packets,
        sum.delivered_packets
    );
    let _ = writeln!(
        out.report,
        "  op mix: calendar {near} near + {far} far pending, {buffer_occupancy} pkt/port, take-over share {take_over_share:.4}, mean packet {mean_len} B"
    );
    let _ = writeln!(
        out.report,
        "  {:<30} {:>12} {:>10} {:>10} {:>7}",
        "layer", "ops", "ns/op", "busy ms", "share"
    );
    for r in &rows {
        let busy = r.ops as f64 * r.ns_per_op;
        let _ = writeln!(
            out.report,
            "  {:<30} {:>12} {:>10.1} {:>10.1} {:>6.1}%",
            r.layer,
            r.ops,
            r.ns_per_op,
            busy / 1e6,
            100.0 * busy / wall_ns
        );
    }
    let _ = writeln!(
        out.report,
        "  {:<30} {:>12} {:>10} {:>10.1} {:>6.1}%",
        "unexplained (runtime glue)",
        "",
        "",
        (wall_ns - explained) / 1e6,
        100.0 * unexplained
    );
    let _ = writeln!(
        out.report,
        "  switch queues: two-queue {twoq_ns:.1} ns/op, FIFO {fifo_ns:.1} ns/op (inside the switch row); ring {ring_ns:.1} ns/record (unused serially)"
    );

    let grants = c.grants.max(1) as f64;
    per_layer_metrics(
        &mut out,
        &[
            ("queue.events", sum.events as f64),
            ("queue.ns_per_op", queue_ns),
            ("queue.busy_share", sum.events as f64 * queue_ns / wall_ns),
            ("ring.ns_per_record", ring_ns),
            ("twoqueue.ns_per_op", twoq_ns),
            ("fifo.ns_per_op", fifo_ns),
            ("twoqueue.take_over_ratio", take_over_share),
            ("switch.grants", c.grants as f64),
            ("switch.ns_per_packet", switch_ns),
            ("switch.order_error_ratio", sum.order_errors as f64 / grants),
            ("nic.ns_per_packet", nic_ns),
            ("sink.ns_per_packet", sink_ns),
            ("stamp.ns_per_packet", stamp_ns),
            ("admission.us_per_admit", admit_us),
            ("topology.build_ms", topo_ms),
            ("traffic.ns_per_message", traffic_ns),
            ("hist.ns_per_record", hist_ns),
            ("netsim.new_ms", new_ms),
            ("netsim.unexplained_share", unexplained),
            ("trace.overhead_ratio", wall_t / wall_u),
        ],
    );
    out.counts = vec![
        ("events", sum.events),
        ("delivered_packets", sum.delivered_packets),
        ("grants", c.grants),
        ("take_over", c.take_over),
        ("report_digest", fnv1a(report_u.to_json().as_bytes())),
    ];
    out.files
        .push((format!("{}.ledger.txt", w.name()), out.report.clone()));
    out
}
