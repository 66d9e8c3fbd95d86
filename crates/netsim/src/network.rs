//! Network assembly: topology wiring.
//!
//! [`Network`] builds every model instance — switches, NICs, sinks,
//! traffic sources, the flow table — wires them into one world
//! ([`crate::runtime`]) and hands it to [`dqos_sim_core::execute`].
//! Clock domains are honoured throughout: models see their *local*
//! time, deadlines cross links as TTDs (§3.3), and only the statistics
//! collector reads the hidden global clock.

use crate::collect::Collector;
use crate::config::{ClockOffsets, SimConfig};
use crate::error::{SimError, Violation};
use crate::flows::{FlowTable, RerouteStats};
use crate::runtime::{Feeder, HostState, Shared, Sim, SwitchState};
use crate::arena::SoaArena;
use dqos_core::{ClockDomain, TrafficClass, NUM_CLASSES};
use dqos_endhost::{Nic, NicConfig, Sink};
use dqos_faults::{CompiledFaults, FaultPlan};
use dqos_sim_core::{
    execute, ExecConfig, ExecError, ExecResult, SimDuration, SimRng, SimTime, SplitMix64,
};
use dqos_stats::{FaultClassLoss, FaultReport, Report, StageSlack, TraceClassSlack, TraceReport};
use dqos_switch::{Switch, SwitchConfig};
use dqos_topology::{FoldedClos, HostId, NodeId, Port, SwitchId};
use dqos_trace::{Trace, Tracer};
use dqos_traffic::{build_host_mix, HostSources};

/// Watchdog limit on events processed at a single timestamp: a
/// healthy run's same-tick bursts are bounded by the port count, so
/// crossing this means a node is rescheduling work without advancing
/// time.
const SAME_TICK_LIMIT: u64 = 10_000_000;

/// End-of-run diagnostics (the correctness side of a run; the
/// performance side is the [`Report`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct RunSummary {
    /// Events processed.
    pub events: u64,
    /// Packets put on the wire by NICs.
    pub injected_packets: u64,
    /// Packets received by sinks.
    pub delivered_packets: u64,
    /// Out-of-order deliveries observed (appendix: must be 0).
    pub out_of_order: u64,
    /// Messages abandoned half-assembled (lossless fabric: must be 0).
    pub broken_messages: u64,
    /// Packets still queued in NICs/switches when the run stopped
    /// (0 when the run drains).
    pub residual_packets: u64,
    /// Cumulative take-over-queue admissions (Advanced 2 VCs only).
    pub take_over_total: u64,
    /// Order errors across all switches (§3.4): the scheduler served a
    /// packet while a smaller deadline sat in the same buffer. Zero for
    /// Ideal; Advanced < Simple.
    pub order_errors: u64,
    /// Video streams that could not be admitted (ran unreserved).
    pub admission_fallbacks: u32,
    /// Messages handed to NICs by the generators.
    pub offered_messages: u64,
    /// Arena high-water mark: the most packets the struct-of-arrays
    /// arena ever held at once (a packet is resident from stamping to
    /// delivery, so queued and in-flight packets count alike).
    pub peak_in_flight: u64,
    /// Calendar high-water mark: the most events pending at once; times
    /// [`crate::CALENDAR_ENTRY_BYTES`], the calendar's storage at its
    /// peak. Diagnostic only.
    pub peak_pending_events: u64,
    /// Packets dropped at failed or lossy links (fault injection only).
    pub dropped_packets: u64,
    /// Packets discarded at the destination as corrupted (fault
    /// injection only).
    pub corrupted_packets: u64,
    /// Flow-control credits destroyed in flight (fault injection only).
    pub credits_lost: u64,
    /// Regulated flows rerouted with their reservation intact after a
    /// failure.
    pub reroutes: u32,
    /// Regulated flows whose reservation was revoked because no
    /// surviving path could carry them.
    pub reroute_rejections: u32,
    /// Revoked flows re-admitted after a repair.
    pub readmissions: u32,
    /// Cached aggregated (src, dst) routes dropped because they crossed
    /// a failed link (re-assigned lazily over surviving spines).
    pub route_invalidations: u32,
}

impl RunSummary {
    /// Check every correctness invariant of a drained run, returning the
    /// full list of violations instead of panicking.
    ///
    /// Conservation in a fault-injected run reads *injected = delivered +
    /// dropped + corrupted*; with no faults the loss terms are zero and
    /// this degenerates to the seed's strict equality. Broken messages
    /// are a violation only when nothing was dropped or corrupted —
    /// losing a mid-message packet legitimately abandons its reassembly.
    /// Likewise out-of-order deliveries are a violation only when no flow
    /// changed path: fixed routing guarantees ordering *per route*, so
    /// any path change during the run — a reservation-preserving reroute,
    /// a rejection onto an unregulated fallback path, a post-repair
    /// re-admission, or an invalidated aggregated-route cache entry — can
    /// let a packet on the new path overtake one still in flight on the
    /// old path. The count stays visible either way.
    pub fn check(&self) -> Result<(), SimError> {
        let mut violations = Vec::new();
        if self.injected_packets
            != self.delivered_packets + self.dropped_packets + self.corrupted_packets
        {
            violations.push(Violation::Conservation {
                injected: self.injected_packets,
                delivered: self.delivered_packets,
                dropped: self.dropped_packets,
                corrupted: self.corrupted_packets,
            });
        }
        let paths_changed = self.reroutes != 0
            || self.reroute_rejections != 0
            || self.readmissions != 0
            || self.route_invalidations != 0;
        if self.out_of_order != 0 && !paths_changed {
            violations.push(Violation::OutOfOrder { count: self.out_of_order });
        }
        if self.broken_messages != 0 && self.dropped_packets == 0 && self.corrupted_packets == 0 {
            violations.push(Violation::BrokenMessages { count: self.broken_messages });
        }
        if self.residual_packets != 0 {
            violations.push(Violation::Residual { count: self.residual_packets });
        }
        if violations.is_empty() {
            Ok(())
        } else {
            Err(SimError::Violations(violations))
        }
    }

    /// Assert every invariant, panicking with a description on violation
    /// — the strict mode tests, benches and examples use after
    /// [`Network::run`] on fault-free configurations.
    pub fn check_strict(&self) {
        if let Err(e) = self.check() {
            // tidy: allow(no-unwrap) -- check_strict is the panic-on-error
            // contract by documented design; check() is the Result form.
            panic!("{e}");
        }
    }

    /// JSON value (the diagnostics beside [`Report::to_json`]).
    ///
    /// The fault counters are emitted only when nonzero, so fault-free
    /// summaries stay byte-identical to pre-fault builds.
    pub fn to_json_value(&self) -> dqos_stats::Json {
        use dqos_stats::Json;
        let mut fields = vec![
            ("events", Json::Int(self.events as i128)),
            ("injected_packets", Json::Int(self.injected_packets as i128)),
            ("delivered_packets", Json::Int(self.delivered_packets as i128)),
            ("out_of_order", Json::Int(self.out_of_order as i128)),
            ("broken_messages", Json::Int(self.broken_messages as i128)),
            ("residual_packets", Json::Int(self.residual_packets as i128)),
            ("take_over_total", Json::Int(self.take_over_total as i128)),
            ("order_errors", Json::Int(self.order_errors as i128)),
            ("admission_fallbacks", Json::Int(self.admission_fallbacks as i128)),
            ("offered_messages", Json::Int(self.offered_messages as i128)),
            ("peak_in_flight", Json::Int(self.peak_in_flight as i128)),
            ("peak_pending_events", Json::Int(self.peak_pending_events as i128)),
        ];
        for (k, v) in [
            ("dropped_packets", self.dropped_packets),
            ("corrupted_packets", self.corrupted_packets),
            ("credits_lost", self.credits_lost),
            ("reroutes", self.reroutes as u64),
            ("reroute_rejections", self.reroute_rejections as u64),
            ("readmissions", self.readmissions as u64),
            ("route_invalidations", self.route_invalidations as u64),
        ] {
            if v != 0 {
                fields.push((k, Json::Int(v as i128)));
            }
        }
        Json::obj(fields)
    }
}

/// The assembled simulation.
///
/// ```
/// use dqos_core::Architecture;
/// use dqos_netsim::{Network, SimConfig};
///
/// // A small network at 20% load; `run` drains the fabric and returns
/// // the measurement report plus correctness diagnostics.
/// let cfg = SimConfig::tiny(Architecture::Advanced2Vc, 0.2);
/// let (report, summary) = Network::new(cfg).run();
/// assert_eq!(summary.injected_packets, summary.delivered_packets);
/// assert_eq!(summary.out_of_order, 0);
/// assert!(report.class("Control").unwrap().delivered.packets() > 0);
/// ```
pub struct Network {
    cfg: SimConfig,
    topo: FoldedClos,
    switches: Vec<Switch>,
    nics: Vec<Nic>,
    sw_clock: Vec<ClockDomain>,
    host_clock: Vec<ClockDomain>,
    sources: Vec<HostSources>,
    flows: FlowTable,
    feeder: Vec<Vec<Feeder>>,
    /// (leaf switch, leaf output port) feeding each host's delivery link.
    host_feed: Vec<(u32, Port)>,
    /// Sources stop emitting after this time.
    source_stop: SimTime,
    /// Compiled fault plan; `disabled()` (no branches taken, no RNG
    /// drawn) for [`Network::new`] runs.
    faults: CompiledFaults,
}

impl Network {
    /// Build the full simulation from a config (deterministic per seed).
    pub fn new(cfg: SimConfig) -> Self {
        let topo = FoldedClos::build(cfg.topology);
        let n_hosts = topo.n_hosts() as usize;
        let n_switches = topo.n_switches() as usize;
        let mut master = SimRng::new(cfg.seed);

        // Clock domains.
        let mut offset_rng = SplitMix64::new(cfg.seed ^ 0xC10C_0FF5);
        let mut mk_clock = |_: usize| match cfg.clocks {
            ClockOffsets::Synced => ClockDomain::SYNCED,
            ClockOffsets::RandomUpTo(max) => {
                ClockDomain::new((offset_rng.next_u64() % (max + 1)) as i64)
            }
        };
        let host_clock: Vec<ClockDomain> = (0..n_hosts).map(&mut mk_clock).collect();
        let sw_clock: Vec<ClockDomain> = (0..n_switches).map(&mut mk_clock).collect();

        // Traffic sources (per host). Each source carries its own forked
        // stream, so a firing's randomness is a pure function of which
        // source fired — not of the global event interleaving.
        let sources: Vec<HostSources> = (0..n_hosts)
            .map(|h| {
                let mut rng = master.fork(h as u64);
                build_host_mix(&cfg.mix, HostId(h as u32), topo.n_hosts(), &mut rng).bind(&mut rng)
            })
            .collect();

        // Flow table: admit the video streams to their actual destinations.
        let video_dsts: Vec<Vec<HostId>> =
            sources.iter().map(|srcs| srcs.video_dsts().collect()).collect();
        let video_mode = match cfg.video_deadlines {
            crate::config::VideoDeadlines::FrameSpread { target_ns } => {
                dqos_core::DeadlineMode::FrameSpread { target: SimDuration::from_ns(target_ns) }
            }
            crate::config::VideoDeadlines::AverageBandwidth => {
                dqos_core::DeadlineMode::AvgBandwidth(cfg.mix.video_stream_bw)
            }
            crate::config::VideoDeadlines::PeakBandwidth => {
                // Peak rate: the largest possible frame every period.
                let peak = cfg.mix.video_frame_bounds.1 as f64
                    / cfg.mix.video_frame_period.as_secs_f64();
                dqos_core::DeadlineMode::AvgBandwidth(
                    dqos_sim_core::Bandwidth::bytes_per_sec(peak as u64),
                )
            }
        };
        let flows = FlowTable::new(
            &topo,
            cfg.arch,
            cfg.mix.link_bw,
            &video_dsts,
            cfg.mix.video_stream_bw,
            video_mode,
            cfg.eligible_lead_ns.map(SimDuration::from_ns),
            cfg.be_weights,
        );

        // Switches (port counts differ between leaves and spines).
        let switches: Vec<Switch> = (0..n_switches)
            .map(|s| {
                Switch::new(SwitchConfig {
                    arch: cfg.arch,
                    n_ports: topo.switch_ports(SwitchId(s as u32)),
                    buffer_per_vc: cfg.switch_buffer_per_vc,
                    link_bw: cfg.mix.link_bw,
                    input_voq: cfg.input_voq,
                })
            })
            .collect();

        // NICs. (Sinks are built with the world, pre-sized from the flow
        // table's dense id bands.)
        let nics: Vec<Nic> = (0..n_hosts)
            .map(|_| {
                Nic::new(NicConfig {
                    arch: cfg.arch,
                    link_bw: cfg.mix.link_bw,
                    peer_buffer_per_vc: cfg.switch_buffer_per_vc,
                })
            })
            .collect();

        // Reverse adjacency: who feeds each switch input port.
        let mut feeder: Vec<Vec<Feeder>> = (0..n_switches)
            .map(|s| vec![Feeder::Host(u32::MAX); topo.switch_ports(SwitchId(s as u32)) as usize])
            .collect();
        for h in 0..topo.n_hosts() {
            let end = topo.host_out_link(HostId(h));
            // tidy: allow(no-unwrap) -- FoldedClos wires every host uplink
            // to a leaf switch; a host peer here is a topology-builder bug.
            let NodeId::Switch(sw) = end.peer else { unreachable!("hosts attach to switches") };
            feeder[sw.idx()][end.peer_port.idx()] = Feeder::Host(h);
        }
        for s in 0..topo.n_switches() {
            let sw = SwitchId(s);
            for p in 0..topo.switch_ports(sw) {
                if let Some(end) = topo.switch_out_link(sw, Port(p)) {
                    if let NodeId::Switch(peer) = end.peer {
                        feeder[peer.idx()][end.peer_port.idx()] = Feeder::Switch(s, Port(p));
                    }
                }
            }
        }
        let host_feed: Vec<(u32, Port)> = (0..topo.n_hosts())
            .map(|h| {
                let leaf = topo.leaf_of(HostId(h));
                let port = Port((h % cfg.topology.hosts_per_leaf as u32) as u8);
                (leaf.0, port)
            })
            .collect();
        let source_stop = cfg.source_stop();

        Network {
            cfg,
            topo,
            switches,
            nics,
            sw_clock,
            host_clock,
            sources,
            flows,
            feeder,
            host_feed,
            source_stop,
            faults: CompiledFaults::disabled(),
        }
    }

    /// Build the simulation with a fault plan compiled into the runtime.
    ///
    /// An empty plan is inert by construction — no fault epochs are
    /// scheduled, no RNG is drawn, no clock is skewed — so the run is
    /// bit-identical to [`Network::new`] with the same config. A
    /// non-empty plan is itself deterministic: same config + same plan ⇒
    /// same run, bit for bit.
    pub fn with_faults(cfg: SimConfig, plan: &FaultPlan) -> Self {
        let mut net = Network::new(cfg);
        if plan.is_empty() {
            return net;
        }
        net.faults = plan.compile(&net.topo);
        for h in 0..net.host_clock.len() {
            let ppm = net.faults.host_skew_ppm(h as u32);
            if ppm != 0 {
                net.host_clock[h] = ClockDomain::with_skew(net.host_clock[h].offset, ppm);
            }
        }
        for s in 0..net.sw_clock.len() {
            let ppm = net.faults.switch_skew_ppm(s as u32);
            if ppm != 0 {
                net.sw_clock[s] = ClockDomain::with_skew(net.sw_clock[s].offset, ppm);
            }
        }
        net
    }

    /// Assemble the world, run it through the executor, and hand the
    /// shared wiring, the world and the executor's result to `done`.
    /// Timed fault entries become executor epochs. The world borrows the
    /// [`Shared`] state, which lives in this frame until `done` returns.
    ///
    /// [`SimConfig::workers`] must be 1; any other value is a
    /// [`SimError::Config`].
    fn execute_with<R>(
        self,
        horizon: Option<SimTime>,
        done: impl for<'s> FnOnce(&'s Shared, Sim<'s>, ExecResult<SimError>) -> R,
    ) -> Result<R, SimError> {
        let cfg = self.cfg;
        if cfg.workers != 1 {
            return Err(SimError::Config {
                detail: format!(
                    "workers = {}: the simulator runs one event loop per run, so workers must \
                     be 1 (run independent configurations in parallel instead)",
                    cfg.workers
                ),
            });
        }
        let n_hosts = self.topo.n_hosts();
        let n_links = self.topo.n_links() as usize;

        // Timed faults become executor epochs; entries sharing an
        // instant form one epoch (the executor wants strictly ascending
        // times).
        let mut epoch_groups: Vec<(SimTime, Vec<usize>)> = Vec::new();
        for (i, t) in self.faults.timed().iter().enumerate() {
            match epoch_groups.last_mut() {
                Some((at, idxs)) if *at == t.at => idxs.push(i),
                _ => epoch_groups.push((t.at, vec![i])),
            }
        }
        let epochs: Vec<SimTime> = epoch_groups.iter().map(|(t, _)| *t).collect();

        let shared = Shared {
            cfg,
            topo: self.topo,
            host_clock: self.host_clock,
            sw_clock: self.sw_clock,
            feeder: self.feeder,
            host_feed: self.host_feed,
            source_stop: self.source_stop,
            n_hosts,
            faults_enabled: self.faults.enabled(),
            epoch_groups,
        };
        let flows = self.flows;
        let hosts: Vec<HostState> = self
            .nics
            .into_iter()
            .zip(self.sources)
            .enumerate()
            .map(|(h, (nic, srcs))| {
                let sink = Sink::with_bands(&flows.sink_bands(HostId(h as u32)));
                HostState::new(nic, sink, srcs)
            })
            .collect();
        let switches: Vec<SwitchState> = self
            .switches
            .into_iter()
            .enumerate()
            .map(|(s, sw)| {
                let ports = shared.topo.switch_ports(SwitchId(s as u32)) as usize;
                SwitchState::new(sw, ports)
            })
            .collect();
        let mut sim = Sim {
            shared: &shared,
            hosts,
            switches,
            arena: SoaArena::new(),
            collector: Collector::new(cfg.window_start(), cfg.window_end()),
            injector: self.faults.injector(),
            faults: self.faults,
            flows,
            link_down: vec![false; n_links],
            reroute: RerouteStats::default(),
            fault_dropped: [0; NUM_CLASSES],
            fault_corrupted: [0; NUM_CLASSES],
            fault_deadline_miss: [0; NUM_CLASSES],
            credits_lost: 0,
            offered_messages: 0,
            last_t: SimTime::ZERO,
            tracer: Tracer::new(cfg.trace),
            notes: Vec::new(),
            act_buf: Vec::new(),
            tok_buf: Vec::new(),
            part_buf: Vec::new(),
            stamp_buf: Vec::new(),
        };
        if cfg.trace.enabled {
            // Turn on the in-model note hooks (crossbar grants, pacing
            // promotions); without this the models stay note-free and the
            // runtime hooks alone record the lifecycle skeleton.
            for hs in &mut sim.hosts {
                hs.nic.set_tracing(true);
            }
            for ss in &mut sim.switches {
                ss.sw.set_tracing(true);
            }
        }

        let ecfg = ExecConfig { epochs, horizon, same_tick_limit: SAME_TICK_LIMIT };
        let res = execute(&mut sim, &ecfg);
        Ok(done(&shared, sim, res))
    }

    /// Run to completion: sources stop at the window end, then the
    /// network drains. Returns the measurement [`Report`] plus the
    /// correctness [`RunSummary`]. Panics on [`SimError`] — the right
    /// contract for fault-free runs, where any error is a simulator bug
    /// or a rejected configuration; fault-injected callers that want to
    /// observe failure use [`Network::try_run`].
    pub fn run(self) -> (Report, RunSummary) {
        // tidy: allow(no-unwrap) -- run() is the panic-on-error contract by
        // documented design; try_run() is the Result form for fault runs.
        self.try_run().unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Network::run`], additionally returning the merged flight-recorder
    /// [`Trace`] (empty unless [`SimConfig::trace`] enabled tracing).
    pub fn run_traced(self) -> (Report, RunSummary, Trace) {
        // tidy: allow(no-unwrap) -- same panic-on-error contract as run();
        // try_run_traced() is the Result form.
        self.try_run_traced().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Run to completion, surfacing wedged or miswired fabrics as
    /// structured [`SimError`]s instead of hanging or panicking.
    ///
    /// Two watchdogs guard the run: a same-timestamp event bound
    /// (livelock — time stopped advancing), and a post-drain occupancy
    /// check (credit deadlock — the calendar is empty but packets are
    /// still buffered, which happens when fault injection destroys
    /// credits). Both return a [`crate::StallSnapshot`] describing
    /// exactly where packets and credits got stuck. A configuration the
    /// simulator cannot run (`workers != 1`) returns
    /// [`SimError::Config`].
    pub fn try_run(self) -> Result<(Report, RunSummary), SimError> {
        self.try_run_traced().map(|(report, summary, _)| (report, summary))
    }

    /// [`Network::try_run`], additionally returning the merged
    /// flight-recorder [`Trace`] (empty unless [`SimConfig::trace`]
    /// enabled tracing).
    pub fn try_run_traced(self) -> Result<(Report, RunSummary, Trace), SimError> {
        self.execute_with(None, |shared, sim, res| {
            match res.error {
                Some(ExecError::App { err, .. }) => return Err(err),
                Some(ExecError::SameTick { time }) => {
                    return Err(SimError::Stall(Box::new(sim.stall_snapshot(time, res.events))));
                }
                None => {}
            }
            if sim.arena.live() != 0 || sim.residual_packets() != 0 {
                return Err(SimError::Stall(Box::new(sim.stall_snapshot(sim.last_t, res.events))));
            }
            Ok(finish(shared, sim, &res))
        })?
    }

    /// Run but stop processing at the window end, leaving in-flight
    /// traffic unaccounted (fast mode for sweeps; statistics windows are
    /// identical to [`Network::run`], only the drain is skipped). Panics
    /// on [`SimError`], like [`Network::run`].
    pub fn run_truncated(self) -> (Report, RunSummary) {
        let stop = self.cfg.window_end();
        let run = self.execute_with(Some(stop), |shared, sim, res| match res.error {
            Some(ExecError::App { err, .. }) => Err(err),
            Some(ExecError::SameTick { time }) => {
                Err(SimError::Stall(Box::new(sim.stall_snapshot(time, res.events))))
            }
            None => {
                let (report, summary, _) = finish(shared, sim, &res);
                Ok((report, summary))
            }
        });
        // tidy: allow(no-unwrap) -- same panic-on-error contract as run():
        // truncated runs are a measurement mode for fault-free configs.
        run.and_then(|r| r).unwrap_or_else(|e| panic!("{e}"))
    }
}

/// Turn the world's end-of-run state into the report + summary.
fn finish(shared: &Shared, sim: Sim<'_>, res: &ExecResult<SimError>) -> (Report, RunSummary, Trace) {
    let sum = |f: fn(&HostState) -> u64| sim.hosts.iter().map(f).sum::<u64>();
    let reroute = sim.reroute;
    let summary = RunSummary {
        events: res.events,
        injected_packets: sum(|h| h.nic.stats().injected_packets),
        delivered_packets: sum(|h| h.sink.stats().packets),
        out_of_order: sum(|h| h.sink.stats().out_of_order),
        broken_messages: sum(|h| h.sink.stats().broken_messages),
        residual_packets: sim.residual_packets(),
        take_over_total: sim.switches.iter().map(|s| s.sw.take_over_total()).sum(),
        order_errors: sim.switches.iter().map(|s| s.sw.stats().order_errors).sum(),
        admission_fallbacks: sim.flows.admission_fallbacks(),
        offered_messages: sim.offered_messages,
        peak_in_flight: sim.arena.high_water() as u64,
        peak_pending_events: res.peak_pending,
        dropped_packets: sim.fault_dropped.iter().sum(),
        corrupted_packets: sim.fault_corrupted.iter().sum(),
        credits_lost: sim.credits_lost,
        reroutes: reroute.rerouted,
        reroute_rejections: reroute.rejected,
        readmissions: reroute.readmitted,
        route_invalidations: reroute.invalidated,
    };
    let trace = sim.tracer.finish();
    let mut report = sim.collector.finish(shared.cfg.arch.label(), shared.cfg.mix.load);
    if shared.faults_enabled {
        report.faults = Some(FaultReport {
            classes: TrafficClass::ALL
                .iter()
                .map(|c| FaultClassLoss {
                    class: c.name().to_string(),
                    dropped: sim.fault_dropped[c.idx()],
                    corrupted: sim.fault_corrupted[c.idx()],
                    deadline_miss: sim.fault_deadline_miss[c.idx()],
                })
                .collect(),
            credits_lost: sim.credits_lost,
            reroutes: reroute.rerouted,
            reroute_rejections: reroute.rejected,
            readmissions: reroute.readmitted,
        });
    }
    if shared.cfg.trace.enabled {
        report.trace = Some(trace_report(&trace));
    }
    (report, summary, trace)
}

/// Roll the trace up into the report's `trace` section: slack
/// attribution per class (Table-1 order, every stage listed).
fn trace_report(trace: &Trace) -> TraceReport {
    let a = dqos_trace::attribute(&trace.events);
    TraceReport {
        events: trace.events.len() as u64,
        dropped_events: trace.dropped,
        incomplete: a.incomplete,
        classes: TrafficClass::ALL
            .iter()
            .map(|c| {
                let s = a.classes.get(c.idx()).copied().unwrap_or_default();
                TraceClassSlack {
                    class: c.name().to_string(),
                    delivered: s.delivered,
                    missed: s.missed,
                    miss_ns: s.miss_ticks,
                    initial_slack_ns: s.initial_slack_ticks,
                    stages: dqos_trace::STAGE_NAMES
                        .iter()
                        .zip(s.stages.iter())
                        .map(|(name, &ns)| StageSlack { stage: (*name).to_string(), ns })
                        .collect(),
                }
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dqos_core::Architecture;

    /// Smallest meaningful smoke test: one tiny network, light load.
    #[test]
    fn smoke_tiny_network_runs_and_conserves() {
        let mut cfg = SimConfig::tiny(Architecture::Advanced2Vc, 0.2);
        cfg.warmup = SimDuration::from_us(200);
        cfg.measure = SimDuration::from_ms(2);
        let (report, summary) = Network::new(cfg).run();
        assert!(summary.events > 0);
        assert!(summary.injected_packets > 0, "traffic flowed");
        assert_eq!(summary.injected_packets, summary.delivered_packets, "conservation");
        assert_eq!(summary.out_of_order, 0, "appendix theorem 3");
        assert_eq!(summary.broken_messages, 0, "lossless");
        assert_eq!(summary.residual_packets, 0, "drained");
        assert!(report.class("Control").unwrap().packet_latency.count() > 0);
    }

    #[test]
    fn all_architectures_run() {
        for arch in Architecture::ALL {
            let mut cfg = SimConfig::tiny(arch, 0.15);
            cfg.warmup = SimDuration::from_us(200);
            cfg.measure = SimDuration::from_ms(1);
            let (_, summary) = Network::new(cfg).run();
            assert_eq!(summary.injected_packets, summary.delivered_packets, "{arch:?}");
            assert_eq!(summary.out_of_order, 0, "{arch:?}");
            assert_eq!(summary.residual_packets, 0, "{arch:?}");
        }
    }

    #[test]
    fn source_horizon_extends_injection_past_the_window() {
        let mut cfg = SimConfig::tiny(Architecture::Ideal, 0.2);
        cfg.warmup = SimDuration::from_us(100);
        cfg.measure = SimDuration::from_ms(1);
        let (_, base) = Network::new(cfg).run();
        let mut pinned = cfg;
        pinned.source_horizon = Some(SimDuration::from_ms(4));
        let (_, long) = Network::new(pinned).run();
        assert!(
            long.injected_packets > base.injected_packets,
            "generators must keep producing past window_end ({} !> {})",
            long.injected_packets,
            base.injected_packets
        );
        // The fault examples rely on a pinned horizon meaning one shared
        // traffic trajectory: moving the measurement window must not
        // change what was offered or injected.
        let mut wider = pinned;
        wider.measure = SimDuration::from_ms(2);
        let (_, wide) = Network::new(wider).run();
        assert_eq!(wide.offered_messages, long.offered_messages);
        assert_eq!(wide.injected_packets, long.injected_packets);
    }

    #[test]
    fn deterministic_per_seed() {
        let mk = || {
            let mut cfg = SimConfig::tiny(Architecture::Simple2Vc, 0.2);
            cfg.warmup = SimDuration::from_us(100);
            cfg.measure = SimDuration::from_ms(1);
            cfg.seed = 77;
            cfg
        };
        let (r1, s1) = Network::new(mk()).run();
        let (r2, s2) = Network::new(mk()).run();
        assert_eq!(s1.events, s2.events);
        assert_eq!(s1.injected_packets, s2.injected_packets);
        assert_eq!(r1.to_json(), r2.to_json(), "bit-identical reports");
    }

    #[test]
    fn run_summary_check_accepts_good_runs_and_rejects_bad() {
        let mut cfg = SimConfig::tiny(Architecture::Ideal, 0.2);
        cfg.warmup = SimDuration::from_us(100);
        cfg.measure = SimDuration::from_ms(1);
        let (_, summary) = Network::new(cfg).run();
        summary.check().unwrap();
        summary.check_strict(); // must not panic
        let mut bad = summary;
        bad.out_of_order = 1;
        assert!(matches!(
            bad.check(),
            Err(SimError::Violations(v)) if v == [Violation::OutOfOrder { count: 1 }]
        ));
        assert!(std::panic::catch_unwind(move || bad.check_strict()).is_err());
        let mut bad2 = summary;
        bad2.delivered_packets -= 1;
        let Err(SimError::Violations(v)) = bad2.check() else { panic!("must fail") };
        assert!(matches!(v[0], Violation::Conservation { .. }));
        // A drop makes the reduced delivery count add up again...
        bad2.dropped_packets = 1;
        bad2.check().unwrap();
        // ...and excuses broken messages, but not reordering: losses do
        // not change any path.
        bad2.broken_messages = 3;
        bad2.check().unwrap();
        bad2.out_of_order = 2;
        assert!(bad2.check().is_err());
        // A reroute does change a path — transition-window reordering is
        // expected degraded-mode behaviour, not a violation.
        bad2.reroutes = 1;
        bad2.check().unwrap();
        // So does a rejection (the revoked flow moves to an unregulated
        // fallback route) and an invalidated aggregated-route cache
        // entry, even when nothing was rerouted with its reservation.
        bad2.reroutes = 0;
        bad2.reroute_rejections = 1;
        bad2.check().unwrap();
        bad2.reroute_rejections = 0;
        bad2.route_invalidations = 1;
        bad2.check().unwrap();
    }

    #[test]
    fn summary_json_hides_zero_fault_counters() {
        let mut cfg = SimConfig::tiny(Architecture::Ideal, 0.2);
        cfg.warmup = SimDuration::from_us(100);
        cfg.measure = SimDuration::from_ms(1);
        let (_, summary) = Network::new(cfg).run();
        let j = summary.to_json_value();
        assert!(j.get("dropped_packets").is_none(), "zero counters stay invisible");
        assert_eq!(j.get("events"), Some(&dqos_stats::Json::Int(summary.events as i128)));
        let mut faulty = summary;
        faulty.dropped_packets = 7;
        faulty.reroutes = 2;
        let j2 = faulty.to_json_value();
        assert_eq!(j2.get("dropped_packets"), Some(&dqos_stats::Json::Int(7)));
        assert_eq!(j2.get("reroutes"), Some(&dqos_stats::Json::Int(2)));
        assert!(j2.get("credits_lost").is_none());
    }

    #[test]
    fn empty_fault_plan_is_bit_identical_to_plain_run() {
        let mut cfg = SimConfig::tiny(Architecture::Advanced2Vc, 0.2);
        cfg.warmup = SimDuration::from_us(200);
        cfg.measure = SimDuration::from_ms(1);
        let (r1, s1) = Network::new(cfg).run();
        let (r2, s2) = Network::with_faults(cfg, &FaultPlan::default()).run();
        assert_eq!(s1.events, s2.events);
        assert_eq!(r1.to_json(), r2.to_json(), "empty plan must be inert");
        assert!(r2.faults.is_none(), "no fault section for inert plans");
    }

    #[test]
    fn truncated_mode_counts_less_but_same_window() {
        let cfg = SimConfig::tiny(Architecture::Ideal, 0.2);
        let (_, full) = Network::new(cfg).run();
        let (_, cut) = Network::new(cfg).run_truncated();
        assert!(cut.events <= full.events);
        // Truncated runs may leave packets in flight.
        assert!(cut.delivered_packets <= full.delivered_packets);
    }
}
