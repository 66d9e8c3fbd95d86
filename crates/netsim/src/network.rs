//! Network assembly: topology wiring plus an executor choice.
//!
//! [`Network`] builds every model instance — switches, NICs, sinks,
//! traffic sources, the flow table — wires them into partitions
//! ([`crate::runtime`]) and hands the partitions to
//! [`dqos_sim_core::execute`]: one partition runs the serial calendar
//! loop, several run the conservative parallel executor
//! ([`SimConfig::workers`]), with bit-identical reports either way.
//! Clock domains are honoured throughout: models see their *local*
//! time, deadlines cross links as TTDs (§3.3), and only the statistics
//! collector reads the hidden global clock.

use crate::collect::Collector;
use crate::config::{ClockOffsets, SimConfig};
use crate::error::{SimError, Violation};
use crate::flows::{FlowTable, RerouteStats};
use crate::runtime::{self, Feeder, HostState, PartTotals, Partition, Shared, SwitchState};
use crate::arena::SoaArena;
use dqos_core::{ClockDomain, TrafficClass, NUM_CLASSES};
use dqos_endhost::{Nic, NicConfig, Sink};
use dqos_faults::{CompiledFaults, FaultPlan};
use dqos_sim_core::{
    execute, ExecConfig, ExecEdge, ExecError, ExecResult, SimDuration, SimRng, SimTime,
    SplitMix64, SpscRing,
};
use dqos_stats::{FaultClassLoss, FaultReport, Report, StageSlack, TraceClassSlack, TraceReport};
use dqos_switch::{Switch, SwitchConfig};
use dqos_topology::{FoldedClos, HostId, NodeId, Port, SwitchId};
use dqos_trace::{Trace, Tracer};
use dqos_traffic::{build_host_mix, HostSources};

/// Watchdog limit on events processed at a single timestamp (per
/// partition): a healthy run's same-tick bursts are bounded by the port
/// count, so crossing this means a node is rescheduling work without
/// advancing time.
const SAME_TICK_LIMIT: u64 = 10_000_000;

/// Word capacity of each executor event ring. A partition-crossing
/// event record is 5 words (length prefix, timestamp, key, node, one
/// message word), so one ring holds ~1 600 in-flight crossings before
/// the producer backpressures — far beyond any leaf↔spine burst the
/// credit loop admits.
const EVENT_RING_WORDS: usize = 1 << 13;

/// Word capacity of each packet lane. A lane record is 12 words
/// (length prefix, lane sequence, 10 packet words), so a lane holds
/// ~5 400 packets — comfortably above the ~1 600 packet-carrying
/// records its event ring can hold, which bounds lane occupancy (see
/// `crate::runtime` module docs). The sizing keeps `wire()`'s
/// lane-push infallible.
const LANE_WORDS: usize = 1 << 16;

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
    /// Largest per-partition arena high-water mark: the most packets
    /// any single partition's struct-of-arrays arena ever held at once
    /// (a packet is resident from stamping to delivery, so queued and
    /// in-flight packets count alike). Explicitly a **per-partition
    /// maximum** — the JSON form carries an `aggregation:
    /// "per-partition-max"` marker plus the partition count — because
    /// per-partition peaks occur at different instants and a sum would
    /// not be a meaningful global footprint. It is the only
    /// [`RunSummary`] field (besides `partitions`) whose value depends
    /// on the worker count: a partition-crossing packet leaves the
    /// sender's arena and re-enters the receiver's, so the peaks shift
    /// with the partitioning.
    pub peak_in_flight: u64,
    /// Largest per-partition calendar high-water mark: the most events
    /// any one partition's calendar held pending at once; times
    /// [`crate::CALENDAR_ENTRY_BYTES`], the calendar's storage at its
    /// peak. Diagnostic only, and a **per-partition maximum** with the
    /// same JSON aggregation marker as `peak_in_flight`. With several
    /// partitions it also depends on when the executor drained its
    /// rings, so parallel runs need not reproduce it.
    pub peak_pending_events: u64,
    /// How many partitions the run used (the aggregation width of
    /// `peak_in_flight` and `peak_pending_events`).
    pub partitions: u64,
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

    /// JSON value (for result caches next to [`Report::to_json`]).
    ///
    /// The fault counters are emitted only when nonzero, so fault-free
    /// summaries stay byte-identical to pre-fault builds (and old cached
    /// documents parse unchanged).
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
            (
                // Structured so no reader can mistake the per-partition
                // maximum for a run-wide sum (the PR-3 caveat).
                "peak_in_flight",
                Json::obj(vec![
                    ("aggregation", Json::Str("per-partition-max".into())),
                    ("partitions", Json::Int(self.partitions as i128)),
                    ("max", Json::Int(self.peak_in_flight as i128)),
                ]),
            ),
            (
                "peak_pending_events",
                Json::obj(vec![
                    ("aggregation", Json::Str("per-partition-max".into())),
                    ("partitions", Json::Int(self.partitions as i128)),
                    ("max", Json::Int(self.peak_pending_events as i128)),
                ]),
            ),
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

    /// Inverse of [`RunSummary::to_json_value`].
    pub fn from_json_value(j: &dqos_stats::Json) -> Result<Self, String> {
        let u = |k: &str| -> Result<u64, String> {
            j.get(k).and_then(|v| v.as_u64()).ok_or_else(|| format!("missing field {k}"))
        };
        // Fault counters are optional: absent means zero.
        let opt = |k: &str| -> u64 { j.get(k).and_then(|v| v.as_u64()).unwrap_or(0) };
        // New documents carry a structured per-partition-max object;
        // pre-refactor caches carried a bare (summed) integer, read
        // back as a single-partition peak.
        let (peak, partitions) = match j.get("peak_in_flight") {
            Some(p) => match p.as_u64() {
                Some(v) => (v, 1),
                None => (
                    p.get("max")
                        .and_then(|v| v.as_u64())
                        .ok_or("peak_in_flight object lacks max")?,
                    p.get("partitions").and_then(|v| v.as_u64()).unwrap_or(1),
                ),
            },
            None => return Err("missing field peak_in_flight".into()),
        };
        // Documents written before the calendar diagnostic read as 0.
        let peak_pending = j
            .get("peak_pending_events")
            .and_then(|p| p.get("max"))
            .and_then(|v| v.as_u64())
            .unwrap_or(0);
        Ok(RunSummary {
            events: u("events")?,
            injected_packets: u("injected_packets")?,
            delivered_packets: u("delivered_packets")?,
            out_of_order: u("out_of_order")?,
            broken_messages: u("broken_messages")?,
            residual_packets: u("residual_packets")?,
            take_over_total: u("take_over_total")?,
            order_errors: u("order_errors")?,
            admission_fallbacks: u("admission_fallbacks")? as u32,
            offered_messages: u("offered_messages")?,
            peak_in_flight: peak,
            peak_pending_events: peak_pending,
            partitions,
            dropped_packets: opt("dropped_packets"),
            corrupted_packets: opt("corrupted_packets"),
            credits_lost: opt("credits_lost"),
            reroutes: opt("reroutes") as u32,
            reroute_rejections: opt("reroute_rejections") as u32,
            readmissions: opt("readmissions") as u32,
            route_invalidations: opt("route_invalidations") as u32,
        })
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

        // NICs. (Sinks are built per partition, pre-sized from the flow
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
    /// same run, bit for bit, at any worker count.
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

    /// Partition the models, run them through the executor, and hand
    /// the shared wiring and the executor's result to `done`.
    ///
    /// Hosts are co-partitioned with their leaf switch; leaves and
    /// spines are dealt round-robin over the workers. The only
    /// cross-partition messages therefore ride leaf↔spine wires, whose
    /// smallest latency (wire propagation vs. credit return) is the
    /// executor's lookahead. Timed fault entries become epoch fences.
    /// The partitions borrow the [`Shared`] state, which lives in this
    /// frame until `done` returns.
    fn execute_with<R>(
        self,
        horizon: Option<SimTime>,
        done: impl for<'s> FnOnce(&'s Shared, ExecResult<Partition<'s>>) -> R,
    ) -> R {
        let cfg = self.cfg;
        let n_hosts = self.topo.n_hosts();
        let n_switches = self.topo.n_switches();
        let n_leaves = self.topo.params().leaves as u32;
        let n_links = self.topo.n_links() as usize;
        let w = cfg.workers.clamp(1, n_leaves as usize) as u32;

        let mut part_of = vec![0u32; (n_hosts + n_switches) as usize];
        for s in 0..n_switches {
            let sid = SwitchId(s);
            part_of[(n_hosts + s) as usize] =
                if self.topo.is_leaf(sid) { s % w } else { (s - n_leaves) % w };
        }
        for h in 0..n_hosts {
            part_of[h as usize] = part_of[(n_hosts + self.topo.leaf_of(HostId(h)).0) as usize];
        }
        let mut local_idx = vec![0u32; (n_hosts + n_switches) as usize];
        let mut host_count = vec![0u32; w as usize];
        let mut sw_count = vec![0u32; w as usize];
        for h in 0..n_hosts as usize {
            let p = part_of[h] as usize;
            local_idx[h] = host_count[p];
            host_count[p] += 1;
        }
        for s in 0..n_switches as usize {
            let p = part_of[n_hosts as usize + s] as usize;
            local_idx[n_hosts as usize + s] = sw_count[p];
            sw_count[p] += 1;
        }

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

        // The partition graph: a directed edge wherever any wire joins
        // nodes of two partitions (messages ride the wire one way and
        // credits the reverse way, so both directions always exist
        // together). With hosts co-partitioned with their leaf, only
        // leaf↔spine wires can cross. Every edge's lookahead is the
        // smaller of wire propagation and credit return — the soonest
        // any message sent now can take effect on the neighbour.
        let lookahead = cfg.wire_delay.min(cfg.credit_delay);
        let mut adjacent = vec![false; (w * w) as usize];
        let mut mark = |a: u32, b: u32| {
            if a != b {
                adjacent[(a * w + b) as usize] = true;
                adjacent[(b * w + a) as usize] = true;
            }
        };
        for h in 0..n_hosts {
            let end = self.topo.host_out_link(HostId(h));
            if let NodeId::Switch(sw) = end.peer {
                mark(part_of[h as usize], part_of[(n_hosts + sw.0) as usize]);
            }
        }
        for s in 0..n_switches {
            let sid = SwitchId(s);
            for p in 0..self.topo.switch_ports(sid) {
                if let Some(end) = self.topo.switch_out_link(sid, Port(p)) {
                    let peer = match end.peer {
                        NodeId::Switch(s2) => n_hosts + s2.0,
                        NodeId::Host(h2) => h2.0,
                    };
                    mark(part_of[(n_hosts + s) as usize], part_of[peer as usize]);
                }
            }
        }
        let mut edges = Vec::new();
        let mut lanes = Vec::new();
        let mut lane_of = vec![vec![None; w as usize]; w as usize];
        for a in 0..w {
            for b in 0..w {
                if adjacent[(a * w + b) as usize] {
                    edges.push(ExecEdge { from: a, to: b, lookahead });
                    lane_of[a as usize][b as usize] = Some(lanes.len());
                    lanes.push(SpscRing::new(LANE_WORDS));
                }
            }
        }

        // One flow-table replica per partition; the last takes the
        // original rather than a copy.
        let mut replicas: Vec<FlowTable> = (1..w).map(|_| self.flows.clone()).collect();
        replicas.push(self.flows);
        let shared = Shared {
            cfg,
            topo: self.topo,
            host_clock: self.host_clock,
            sw_clock: self.sw_clock,
            feeder: self.feeder,
            host_feed: self.host_feed,
            source_stop: self.source_stop,
            n_hosts,
            part_of: part_of.clone(),
            local_idx,
            faults_enabled: self.faults.enabled(),
            epoch_groups,
            lanes,
            lane_of,
        };

        let mut parts: Vec<Partition> = (0..w)
            .zip(replicas)
            .map(|(p, flows)| Partition {
                shared: &shared,
                part: p,
                host_ids: Vec::new(),
                switch_ids: Vec::new(),
                hosts: Vec::new(),
                switches: Vec::new(),
                arena: SoaArena::new(),
                collector: Collector::new(cfg.window_start(), cfg.window_end()),
                faults: self.faults.clone(),
                flows,
                link_down: vec![false; n_links],
                injector: self.faults.injector(),
                reroute: RerouteStats::default(),
                lane_buf: Vec::new(),
                lane_seq_out: vec![0; w as usize],
                lane_seq_in: vec![0; w as usize],
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
            })
            .collect();
        for (h, (nic, srcs)) in self.nics.into_iter().zip(self.sources).enumerate() {
            let p = part_of[h] as usize;
            let sink = Sink::with_bands(&parts[p].flows.sink_bands(HostId(h as u32)));
            parts[p].host_ids.push(h as u32);
            parts[p].hosts.push(HostState::new(nic, sink, srcs));
        }
        for (s, sw) in self.switches.into_iter().enumerate() {
            let p = part_of[n_hosts as usize + s] as usize;
            let ports = shared.topo.switch_ports(SwitchId(s as u32)) as usize;
            parts[p].switch_ids.push(s as u32);
            parts[p].switches.push(SwitchState::new(sw, ports));
        }
        if cfg.trace.enabled {
            // Turn on the in-model note hooks (crossbar grants, pacing
            // promotions); without this the models stay note-free and the
            // runtime hooks alone record the lifecycle skeleton.
            for p in &mut parts {
                for hs in &mut p.hosts {
                    hs.nic.set_tracing(true);
                }
                for ss in &mut p.switches {
                    ss.sw.set_tracing(true);
                }
            }
        }

        let ecfg = ExecConfig {
            lookahead,
            edges: Some(edges),
            ring_words: EVENT_RING_WORDS,
            epochs,
            horizon,
            same_tick_limit: SAME_TICK_LIMIT,
            part_of,
        };
        done(&shared, execute(parts, ecfg))
    }

    /// Run to completion: sources stop at the window end, then the
    /// network drains. Returns the measurement [`Report`] plus the
    /// correctness [`RunSummary`]. Panics on [`SimError`] — the right
    /// contract for fault-free runs, where any error is a simulator bug;
    /// fault-injected callers that want to observe failure use
    /// [`Network::try_run`].
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
    /// check (credit deadlock — the calendars are empty but packets are
    /// still buffered, which happens when fault injection destroys
    /// credits). Both return a [`crate::StallSnapshot`] describing
    /// exactly where packets and credits got stuck.
    pub fn try_run(self) -> Result<(Report, RunSummary), SimError> {
        self.try_run_traced().map(|(report, summary, _)| (report, summary))
    }

    /// [`Network::try_run`], additionally returning the merged
    /// flight-recorder [`Trace`] (empty unless [`SimConfig::trace`]
    /// enabled tracing).
    pub fn try_run_traced(self) -> Result<(Report, RunSummary, Trace), SimError> {
        self.execute_with(None, |shared, res| {
            match res.error {
                Some(ExecError::App { err, .. }) => return Err(err),
                Some(ExecError::SameTick { time, .. }) => {
                    return Err(SimError::Stall(Box::new(runtime::stall_snapshot(
                        &res.worlds,
                        time,
                        res.events,
                    ))));
                }
                Some(ExecError::Config { detail }) => return Err(SimError::Config { detail }),
                None => {}
            }
            let wedged = res.worlds.iter().any(|p| {
                p.arena.live() != 0
                    || p.hosts.iter().any(|h| h.nic.queued_packets() != 0)
                    || p.switches.iter().any(|s| s.sw.occupancy_packets() != 0)
            });
            if wedged {
                let last = res.worlds.iter().map(|p| p.last_t).max().unwrap_or(SimTime::ZERO);
                return Err(SimError::Stall(Box::new(runtime::stall_snapshot(
                    &res.worlds,
                    last,
                    res.events,
                ))));
            }
            Ok(finish(shared, res.worlds, res.events, &res.peak_pending))
        })
    }

    /// Run but stop processing at the window end, leaving in-flight
    /// traffic unaccounted (fast mode for sweeps; statistics windows are
    /// identical to [`Network::run`], only the drain is skipped).
    pub fn run_truncated(self) -> (Report, RunSummary) {
        let stop = self.cfg.window_end();
        self.execute_with(Some(stop), |shared, res| {
            match res.error {
                // tidy: allow(no-unwrap) -- truncated runs are a measurement
                // mode for fault-free configs; an executor error is a sim bug.
                Some(ExecError::App { err, .. }) => panic!("{err}"),
                Some(ExecError::SameTick { time, .. }) => {
                    let snap = runtime::stall_snapshot(&res.worlds, time, res.events);
                    // tidy: allow(no-unwrap) -- same contract as the App arm:
                    // stalls in a truncated fault-free run are simulator bugs.
                    panic!("{}", SimError::Stall(Box::new(snap)));
                }
                Some(ExecError::Config { detail }) => {
                    // tidy: allow(no-unwrap) -- truncated runs use the same
                    // assembled config as try_run; a config error is a sim bug.
                    panic!("configuration cannot execute: {detail}")
                }
                None => {}
            }
            let (report, summary, _) = finish(shared, res.worlds, res.events, &res.peak_pending);
            (report, summary)
        })
    }
}

/// Merge the partitions' end-of-run state into the report + summary.
/// Partition-order folding keeps every aggregate — including the f64
/// jitter merges inside [`Collector::finish`] — a fixed operation
/// sequence, so the result is bit-identical at any worker count.
fn finish(
    shared: &Shared,
    worlds: Vec<Partition<'_>>,
    events: u64,
    peak_pending: &[u64],
) -> (Report, RunSummary, Trace) {
    let mut totals = PartTotals::default();
    let mut collector: Option<Collector> = None;
    let mut tracers: Vec<Tracer> = Vec::with_capacity(worlds.len());
    // Every partition's flow-table/reroute replicas hold identical
    // run-wide totals (each applied every epoch — see crate::runtime),
    // so partition 0 speaks for all; summing would multiply-count.
    let reroute = worlds[0].reroute;
    let admission_fallbacks = worlds[0].flows.admission_fallbacks();
    let partitions = worlds.len() as u64;
    for p in worlds {
        totals.absorb(&p);
        tracers.push(p.tracer);
        match &mut collector {
            Some(acc) => acc.merge(p.collector),
            None => collector = Some(p.collector),
        }
    }
    // Canonical merge: stable sort on (time, node) reconstructs the
    // serial recording order whatever the worker count (see dqos-trace).
    let trace = dqos_trace::merge(tracers, shared.cfg.trace);
    let summary = RunSummary {
        events,
        injected_packets: totals.injected,
        delivered_packets: totals.delivered,
        out_of_order: totals.out_of_order,
        broken_messages: totals.broken,
        residual_packets: totals.residual_nic + totals.residual_sw,
        take_over_total: totals.take_over,
        order_errors: totals.order_errors,
        admission_fallbacks,
        offered_messages: totals.offered,
        peak_in_flight: totals.peak_in_flight,
        peak_pending_events: peak_pending.iter().copied().max().unwrap_or(0),
        partitions,
        dropped_packets: totals.dropped.iter().sum(),
        corrupted_packets: totals.corrupted.iter().sum(),
        credits_lost: totals.credits_lost,
        reroutes: reroute.rerouted,
        reroute_rejections: reroute.rejected,
        readmissions: reroute.readmitted,
        route_invalidations: reroute.invalidated,
    };
    let mut report = collector
        // tidy: allow(no-unwrap) -- the partition count is computed as
        // max(1, ...) at build time, so the merge loop ran at least once.
        .expect("at least one partition")
        .finish(shared.cfg.arch.label(), shared.cfg.mix.load);
    if shared.faults_enabled {
        report.faults = Some(FaultReport {
            classes: TrafficClass::ALL
                .iter()
                .map(|c| FaultClassLoss {
                    class: c.name().to_string(),
                    dropped: totals.dropped[c.idx()],
                    corrupted: totals.corrupted[c.idx()],
                    deadline_miss: totals.deadline_miss[c.idx()],
                })
                .collect(),
            credits_lost: totals.credits_lost,
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

/// Roll the merged trace up into the report's `trace` section: slack
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
    fn parallel_workers_match_serial_reports() {
        let mk = |workers: usize| {
            let mut cfg = SimConfig::tiny(Architecture::Advanced2Vc, 0.2);
            cfg.warmup = SimDuration::from_us(200);
            cfg.measure = SimDuration::from_ms(1);
            cfg.workers = workers;
            cfg
        };
        let (r1, s1) = Network::new(mk(1)).run();
        let (r2, s2) = Network::new(mk(2)).run();
        assert_eq!(s1.events, s2.events, "same event count");
        assert_eq!(s1.injected_packets, s2.injected_packets);
        assert_eq!(s1.delivered_packets, s2.delivered_packets);
        assert_eq!(r1.to_json(), r2.to_json(), "bit-identical reports across workers");
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
    fn summary_json_roundtrips_and_hides_zero_fault_counters() {
        let mut cfg = SimConfig::tiny(Architecture::Ideal, 0.2);
        cfg.warmup = SimDuration::from_us(100);
        cfg.measure = SimDuration::from_ms(1);
        let (_, summary) = Network::new(cfg).run();
        let j = summary.to_json_value();
        assert!(j.get("dropped_packets").is_none(), "zero counters stay invisible");
        let back = RunSummary::from_json_value(&j).unwrap();
        assert_eq!(back.events, summary.events);
        assert_eq!(back.dropped_packets, 0);
        let mut faulty = summary;
        faulty.dropped_packets = 7;
        faulty.reroutes = 2;
        let j2 = faulty.to_json_value();
        let back2 = RunSummary::from_json_value(&j2).unwrap();
        assert_eq!(back2.dropped_packets, 7);
        assert_eq!(back2.reroutes, 2);
        assert_eq!(back2.credits_lost, 0);
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
