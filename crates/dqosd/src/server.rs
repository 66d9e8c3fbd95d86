//! The dqos-d daemon: a deterministic, virtual-time admission and
//! stamping server.
//!
//! The daemon is a pure state machine: [`Daemon::ingest`] enqueues a
//! decoded request, [`Daemon::poll`] serves whatever a single-threaded
//! server with the configured per-op service costs would have finished
//! by `now`, and [`Daemon::next_wake`] tells the driver when to poll
//! again. No threads, no wall clock — the same frames in the same
//! virtual-time order produce bit-identical state, responses, and
//! journal bytes, which is what makes the crash-recovery chaos harness
//! able to assert *exact* equality.
//!
//! Robustness mechanisms (see DESIGN.md §11):
//! * **Deadline budgets** — a request whose projected completion busts
//!   its budget is shed immediately with the retryable
//!   [`ErrCode::ShedBudget`], costing almost nothing, instead of
//!   consuming a full service slot to produce a uselessly late answer.
//! * **Priority dual queue** — guaranteed-class and control work is
//!   served strictly before best-effort admission, the control-plane
//!   mirror of the paper's class hierarchy.
//! * **Overload controller** — queue depth and a served-wait EWMA drive
//!   three modes: `Normal` → `ShedBestEffort` (refuse best-effort
//!   admission) → `StampOnly` (refuse *all* admission; stamping,
//!   queries, and teardowns — which free capacity — still run).
//! * **Write-ahead journal** — every admission mutation is journaled
//!   (with its originating client/request for dedup) *before* the
//!   response is emitted; periodic snapshots bound replay time.

use crate::journal::{
    self, append_record, decode_snapshot, encode_snapshot, FlowRec, Persist, Record, SessionRec,
    SnapshotError, Store,
};
use crate::wire::{ErrCode, Op, QueryStats, Reply, ReqClass, Request, Response, NO_BUDGET};
use dqos_core::{AdmissionController, AdmissionError, DeadlineMode, Stamper};
use dqos_sim_core::{Bandwidth, SimDuration, SimTime};
use dqos_stats::LogHistogram;
use dqos_topology::{ClosParams, FoldedClos, HostId, LinkId};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;

/// Virtual-time cost of serving each operation class. These are the
/// "CPU model" of the daemon; the overload tests induce saturation by
/// sending requests faster than `1 / setup`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceCosts {
    /// Admission (path scoring + ledger update).
    pub setup: SimDuration,
    /// Release.
    pub teardown: SimDuration,
    /// Virtual-Clock stamp.
    pub stamp: SimDuration,
    /// Health query / ping.
    pub query: SimDuration,
    /// Shedding a request (budget or overload refusal, cached dedup).
    pub shed: SimDuration,
}

impl Default for ServiceCosts {
    fn default() -> Self {
        ServiceCosts {
            setup: SimDuration::from_us(2),
            teardown: SimDuration::from_us(1),
            stamp: SimDuration::from_ns(300),
            query: SimDuration::from_ns(400),
            shed: SimDuration::from_ns(100),
        }
    }
}

/// Daemon configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct DaemonConfig {
    /// The fabric the admission controller manages.
    pub topology: ClosParams,
    /// Link capacity.
    pub link_bw: Bandwidth,
    /// Reservable fraction of each link.
    pub max_util: f64,
    /// Per-op service costs.
    pub costs: ServiceCosts,
    /// Queue depth at which best-effort admission is shed.
    pub shed_depth: usize,
    /// Queue depth at which *all* admission is refused (stamp-only).
    pub stamp_only_depth: usize,
    /// Served-wait EWMA (ns) above which the controller escalates to at
    /// least `ShedBestEffort` even if the queue looks short.
    pub wait_red_line: SimDuration,
    /// Take a snapshot (and truncate the journal) every this many
    /// journal records; 0 disables snapshots.
    pub snapshot_every: u32,
    /// Record a `(journal_len, control_digest)` pair after every commit
    /// (the chaos harness's ground truth for offset-sweep recovery
    /// checks). Off by default; costs a digest per mutation.
    pub record_digest_trail: bool,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            topology: ClosParams::paper(),
            link_bw: Bandwidth::gbps(8),
            max_util: 1.0,
            costs: ServiceCosts::default(),
            shed_depth: 24,
            stamp_only_depth: 96,
            wait_red_line: SimDuration::from_us(200),
            snapshot_every: 64,
            record_digest_trail: false,
        }
    }
}

/// Overload mode, ordered by severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Mode {
    /// All classes admitted.
    Normal,
    /// Best-effort admission refused (retryable), guaranteed still runs.
    ShedBestEffort,
    /// No admission at all; stamping/query/teardown still run.
    StampOnly,
}

impl Mode {
    /// Wire encoding of the mode.
    pub fn as_u8(self) -> u8 {
        match self {
            Mode::Normal => 0,
            Mode::ShedBestEffort => 1,
            Mode::StampOnly => 2,
        }
    }
}

/// Serving counters and latency histograms.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    /// Requests served to completion (including error answers).
    pub served: u64,
    /// Requests refused by the overload controller.
    pub shed_overload: u64,
    /// Requests refused because their budget could not be met.
    pub shed_budget: u64,
    /// Duplicate mutating requests answered from the session cache.
    pub duplicates: u64,
    /// Stale duplicates dropped without an answer.
    pub stale_dropped: u64,
    /// Frames that failed to decode.
    pub malformed: u64,
    /// Journal records written.
    pub journal_records: u64,
    /// Snapshots taken.
    pub snapshots: u64,
    /// Arrival-to-response latency of the guaranteed/control queue, ns.
    pub guaranteed_latency: LogHistogram,
    /// Arrival-to-response latency of the best-effort queue, ns.
    pub best_effort_latency: LogHistogram,
    /// Arrival-to-completion latency of *successful guaranteed
    /// admissions* only — the paper-facing bound: every value in here
    /// is ≤ the request's budget, because anything that would miss its
    /// budget is shed instead.
    pub admit_latency: LogHistogram,
}

impl Metrics {
    /// Fold another metrics block into this one (counters add,
    /// histograms merge). The chaos harness uses this to report totals
    /// across kill/recover cycles, since recovery starts fresh metrics.
    pub fn merge(&mut self, other: &Metrics) {
        self.served += other.served;
        self.shed_overload += other.shed_overload;
        self.shed_budget += other.shed_budget;
        self.duplicates += other.duplicates;
        self.stale_dropped += other.stale_dropped;
        self.malformed += other.malformed;
        self.journal_records += other.journal_records;
        self.snapshots += other.snapshots;
        self.guaranteed_latency.merge(&other.guaranteed_latency);
        self.best_effort_latency.merge(&other.best_effort_latency);
        self.admit_latency.merge(&other.admit_latency);
    }
}

/// A response frame the driver must deliver: hand `frame` to the
/// transport at virtual time `at`.
#[derive(Debug, Clone)]
pub struct Outgoing {
    /// When service of the request completed.
    pub at: SimTime,
    /// Which client to deliver to.
    pub client: u64,
    /// Encoded [`Response`] payload.
    pub frame: Vec<u8>,
}

/// Why recovery from a [`Store`] failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoverError {
    /// The snapshot blob was corrupt.
    Snapshot(SnapshotError),
    /// The snapshot's admission state does not fit the topology.
    Shape(AdmissionError),
    /// Replaying the journal produced a different decision than the one
    /// recorded — the store belongs to a different configuration.
    Divergence {
        /// The flow (or link) the divergent record concerned.
        flow: u64,
        /// What went wrong.
        detail: &'static str,
    },
}

impl fmt::Display for RecoverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoverError::Snapshot(e) => write!(f, "snapshot: {e}"),
            RecoverError::Shape(e) => write!(f, "admission state: {e}"),
            RecoverError::Divergence { flow, detail } => {
                write!(f, "journal replay diverged at flow {flow}: {detail}")
            }
        }
    }
}

impl std::error::Error for RecoverError {}

struct FlowEntry {
    /// The durable record; when `rec.reserved`, its bandwidth is held on
    /// every link of path `rec.choice` from `rec.src` to `rec.dst`.
    rec: FlowRec,
    stamper: Stamper,
}

/// Return a reserved flow's bandwidth to the ledger (a no-op for an
/// unreserved one).
fn release_reserved(
    ac: &mut AdmissionController,
    net: &FoldedClos,
    rec: &FlowRec,
) -> Result<(), AdmissionError> {
    if !rec.reserved {
        return Ok(());
    }
    let bw = Bandwidth::bytes_per_sec(rec.bw);
    ac.release_choice(net, HostId(rec.src), HostId(rec.dst), rec.choice, bw)
}

struct Session {
    last_req: u64,
    reply: Vec<u8>,
}

struct Pending {
    arrival: SimTime,
    /// Overload mode observed when the request arrived (queue depth
    /// including this request). Shed decisions use the door mode, not
    /// the serve-time mode: a burst is refused consistently instead of
    /// depending on where in the drained queue each item landed.
    door: Mode,
    req: Request,
}

/// The daemon. See the module docs for the driving contract.
pub struct Daemon {
    cfg: DaemonConfig,
    net: FoldedClos,
    ac: AdmissionController,
    flows: BTreeMap<u64, FlowEntry>,
    next_flow: u64,
    sessions: BTreeMap<u64, Session>,
    q_guar: VecDeque<Pending>,
    q_best: VecDeque<Pending>,
    busy_until: SimTime,
    mode: Mode,
    ewma_wait_ns: u64,
    records_since_snapshot: u32,
    store: Store,
    metrics: Metrics,
    trail: Vec<(u64, u64)>,
}

impl Daemon {
    /// A fresh daemon with an empty store.
    pub fn new(cfg: DaemonConfig) -> Daemon {
        let net = FoldedClos::build(cfg.topology);
        let ac = AdmissionController::new(&net, cfg.link_bw, cfg.max_util);
        Daemon {
            cfg,
            net,
            ac,
            flows: BTreeMap::new(),
            next_flow: 0,
            sessions: BTreeMap::new(),
            q_guar: VecDeque::new(),
            q_best: VecDeque::new(),
            busy_until: SimTime::ZERO,
            mode: Mode::Normal,
            ewma_wait_ns: 0,
            records_since_snapshot: 0,
            store: Store::new(),
            metrics: Metrics::default(),
            trail: Vec::new(),
        }
    }

    /// Rebuild a daemon from durable storage: decode the snapshot, then
    /// replay the longest valid journal prefix. The recovered control
    /// state (ledger, flow registry, dedup sessions, flow-id counter) is
    /// bit-identical to the state at the moment the last surviving
    /// record was committed; a torn journal tail is discarded.
    pub fn recover(cfg: DaemonConfig, store: &Store) -> Result<Daemon, RecoverError> {
        let mut d = Daemon::new(cfg);
        let persist = decode_snapshot(&store.snapshot).map_err(RecoverError::Snapshot)?;
        if let Some(adm) = &persist.admission {
            d.ac.restore_state(adm).map_err(RecoverError::Shape)?;
        }
        d.next_flow = persist.next_flow;
        for fr in persist.flows {
            let entry = d.rebuild_entry(fr)?;
            d.flows.insert(entry.rec.flow, entry);
        }
        for s in persist.sessions {
            d.sessions.insert(s.client, Session { last_req: s.last_req, reply: s.reply });
        }
        let (records, valid) = journal::scan(&store.journal);
        d.records_since_snapshot = records.len() as u32;
        for rec in records {
            d.apply_record(rec)?;
        }
        d.store = Store {
            snapshot: store.snapshot.clone(),
            journal: store.journal[..valid].to_vec(),
        };
        Ok(d)
    }

    fn rebuild_entry(&self, rec: FlowRec) -> Result<FlowEntry, RecoverError> {
        if rec.reserved {
            let n = self.net.n_hosts();
            if rec.src >= n || rec.dst >= n {
                return Err(RecoverError::Divergence {
                    flow: rec.flow,
                    detail: "host out of range for topology",
                });
            }
            if rec.src == rec.dst
                || rec.choice >= self.net.route_choices(HostId(rec.src), HostId(rec.dst))
            {
                return Err(RecoverError::Divergence {
                    flow: rec.flow,
                    detail: "path choice out of range for topology",
                });
            }
        }
        // Stamper state is soft: it restarts at virtual-clock zero, which
        // only ever makes the next deadline earlier, never later.
        let stamper = Stamper::new(DeadlineMode::AvgBandwidth(Bandwidth::bytes_per_sec(rec.bw)));
        Ok(FlowEntry { rec, stamper })
    }

    fn apply_record(&mut self, rec: Record) -> Result<(), RecoverError> {
        let (client, req) = rec.session();
        let reply = match rec {
            Record::Setup { flow, class, src, dst, bw, choice, reserved, .. } => {
                if src >= self.net.n_hosts() || dst >= self.net.n_hosts() {
                    return Err(RecoverError::Divergence { flow, detail: "host out of range" });
                }
                if reserved {
                    let replayed = self
                        .ac
                        .admit_choice(
                            &self.net,
                            HostId(src),
                            HostId(dst),
                            Bandwidth::bytes_per_sec(bw),
                        )
                        .map_err(|_| RecoverError::Divergence {
                            flow,
                            detail: "recorded admission no longer fits",
                        })?;
                    if replayed != choice {
                        return Err(RecoverError::Divergence {
                            flow,
                            detail: "replayed path choice differs from the record",
                        });
                    }
                } else {
                    let _ = self.ac.assign_unregulated_choice(&self.net, HostId(src), HostId(dst));
                }
                let fr = FlowRec { flow, class, src, dst, bw, choice, reserved };
                let entry = self.rebuild_entry(fr)?;
                self.flows.insert(flow, entry);
                if flow >= self.next_flow {
                    self.next_flow = flow + 1;
                }
                Reply::Setup { flow, choice, reserved }
            }
            Record::Teardown { flow, .. } => {
                let entry = self.flows.remove(&flow).ok_or(RecoverError::Divergence {
                    flow,
                    detail: "teardown of unknown flow",
                })?;
                release_reserved(&mut self.ac, &self.net, &entry.rec).map_err(|_| {
                    RecoverError::Divergence {
                        flow,
                        detail: "recorded release underflows the ledger",
                    }
                })?;
                Reply::Teardown
            }
            Record::LinkDown { link, .. } => {
                if link >= self.net.n_links() {
                    return Err(RecoverError::Divergence {
                        flow: link as u64,
                        detail: "link out of range",
                    });
                }
                self.ac.fail_link(LinkId(link));
                Reply::LinkSet
            }
            Record::LinkUp { link, .. } => {
                if link >= self.net.n_links() {
                    return Err(RecoverError::Divergence {
                        flow: link as u64,
                        detail: "link out of range",
                    });
                }
                self.ac.restore_link(LinkId(link));
                Reply::LinkSet
            }
        };
        // Rebuild the dedup session exactly as the live path wrote it.
        let frame = Response { id: req, result: Ok(reply) }.encode();
        self.sessions.insert(client, Session { last_req: req, reply: frame });
        Ok(())
    }

    /// The durable store (snapshot + journal). The chaos harness clones
    /// this to simulate a crash.
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// The configuration the daemon was built with.
    pub fn config(&self) -> &DaemonConfig {
        &self.cfg
    }

    /// Current overload mode.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// Serving counters.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Registered flows.
    pub fn n_flows(&self) -> usize {
        self.flows.len()
    }

    /// Requests queued but not yet served.
    pub fn queue_depth(&self) -> usize {
        self.q_guar.len() + self.q_best.len()
    }

    /// The `(journal_len, control_digest)` pairs recorded at each commit
    /// when [`DaemonConfig::record_digest_trail`] is on. The digest is
    /// constant between commits (only committed mutations feed it), so
    /// this is a complete history of durable states.
    pub fn digest_trail(&self) -> &[(u64, u64)] {
        &self.trail
    }

    /// An order-sensitive digest over everything recovery must restore:
    /// the admission ledger, the flow registry, the flow-id counter, and
    /// the dedup sessions. Stamper state and metrics are deliberately
    /// excluded (soft state).
    pub fn control_digest(&self) -> u64 {
        let mut buf = Vec::with_capacity(64 + self.flows.len() * 36 + self.sessions.len() * 24);
        crate::wire::put_u64(&mut buf, self.ac.state_digest());
        crate::wire::put_u64(&mut buf, self.next_flow);
        crate::wire::put_u64(&mut buf, self.flows.len() as u64);
        for (id, e) in &self.flows {
            crate::wire::put_u64(&mut buf, *id);
            buf.push(match e.rec.class {
                ReqClass::Guaranteed => 0,
                ReqClass::BestEffort => 1,
            });
            crate::wire::put_u32(&mut buf, e.rec.src);
            crate::wire::put_u32(&mut buf, e.rec.dst);
            crate::wire::put_u64(&mut buf, e.rec.bw);
            crate::wire::put_u16(&mut buf, e.rec.choice);
            buf.push(e.rec.reserved as u8);
        }
        crate::wire::put_u64(&mut buf, self.sessions.len() as u64);
        for (client, s) in &self.sessions {
            crate::wire::put_u64(&mut buf, *client);
            crate::wire::put_u64(&mut buf, s.last_req);
            crate::wire::put_u64(&mut buf, journal::fnv1a(&s.reply));
        }
        journal::fnv1a(&buf)
    }

    /// Enqueue one frame received at `now`. Undecodable frames are
    /// dropped (transport corruption; the client's timeout covers it).
    pub fn ingest(&mut self, now: SimTime, frame: &[u8]) {
        let Ok(req) = Request::decode(frame) else {
            self.metrics.malformed += 1;
            return;
        };
        let best_effort = matches!(req.op, Op::Setup { class: ReqClass::BestEffort, .. });
        let door = self.mode_for_depth(self.queue_depth() + 1);
        self.mode = door;
        let p = Pending { arrival: now, door, req };
        if best_effort {
            self.q_best.push_back(p);
        } else {
            self.q_guar.push_back(p);
        }
    }

    /// When to call [`Daemon::poll`] next, if work is queued.
    pub fn next_wake(&self) -> Option<SimTime> {
        let head = |q: &VecDeque<Pending>| q.front().map(|p| p.arrival);
        let earliest = match (head(&self.q_guar), head(&self.q_best)) {
            (None, None) => return None,
            (Some(a), None) | (None, Some(a)) => a,
            (Some(a), Some(b)) => a.min(b),
        };
        Some(self.busy_until.max(earliest))
    }

    /// Serve everything a single server could have *started* by `now`,
    /// pushing response frames (timestamped with their completion time)
    /// into `out`.
    pub fn poll(&mut self, now: SimTime, out: &mut Vec<Outgoing>) {
        loop {
            let from_guar = !self.q_guar.is_empty();
            let Some(front) = (if from_guar { self.q_guar.front() } else { self.q_best.front() })
            else {
                break;
            };
            let start = self.busy_until.max(front.arrival);
            if start > now {
                break;
            }
            let popped =
                if from_guar { self.q_guar.pop_front() } else { self.q_best.pop_front() };
            let Some(p) = popped else { break };
            let wait_ns = start.since(p.arrival).as_ns();
            self.ewma_wait_ns = (self.ewma_wait_ns * 3 + wait_ns) / 4;
            let (cost, response) = self.serve(&p, start);
            let complete = start + cost;
            self.busy_until = complete;
            let latency_ns = complete.since(p.arrival).as_ns();
            if from_guar {
                self.metrics.guaranteed_latency.record(latency_ns);
            } else {
                self.metrics.best_effort_latency.record(latency_ns);
            }
            if let Some(frame) = response {
                out.push(Outgoing { at: complete, client: p.req.client, frame });
            }
            self.recompute_mode();
        }
    }

    fn mode_for_depth(&self, depth: usize) -> Mode {
        let mut mode = if depth >= self.cfg.stamp_only_depth {
            Mode::StampOnly
        } else if depth >= self.cfg.shed_depth {
            Mode::ShedBestEffort
        } else {
            Mode::Normal
        };
        if self.ewma_wait_ns > self.cfg.wait_red_line.as_ns() && mode < Mode::ShedBestEffort {
            mode = Mode::ShedBestEffort;
        }
        mode
    }

    fn recompute_mode(&mut self) {
        self.mode = self.mode_for_depth(self.queue_depth());
    }

    fn cost_of(&self, op: &Op) -> SimDuration {
        match op {
            Op::Ping | Op::Query => self.cfg.costs.query,
            Op::Setup { .. } => self.cfg.costs.setup,
            Op::Teardown { .. } => self.cfg.costs.teardown,
            Op::Stamp { .. } => self.cfg.costs.stamp,
            Op::FailLink { .. } | Op::RestoreLink { .. } => self.cfg.costs.teardown,
        }
    }

    /// Decide and execute one request starting service at `start`.
    /// Returns the service cost and the response frame (None for stale
    /// duplicates, which are dropped).
    fn serve(&mut self, p: &Pending, start: SimTime) -> (SimDuration, Option<Vec<u8>>) {
        let req = &p.req;
        let shed = self.cfg.costs.shed;

        // Exactly-once for mutations: a retry of the last applied
        // request replays the cached response; anything older is stale.
        if req.op.mutates() {
            if let Some(s) = self.sessions.get(&req.client) {
                if req.id == s.last_req {
                    self.metrics.duplicates += 1;
                    self.metrics.served += 1;
                    return (shed, Some(s.reply.clone()));
                }
                if req.id < s.last_req {
                    self.metrics.stale_dropped += 1;
                    return (shed, None);
                }
            }
        }

        // Deadline budget: projected completion vs. time already spent
        // queued. Shedding costs `shed`, not the full op.
        if req.budget_ns != NO_BUDGET {
            let projected = (start + self.cost_of(&req.op)).since(p.arrival).as_ns();
            if projected > req.budget_ns {
                self.metrics.shed_budget += 1;
                let frame = Response { id: req.id, result: Err(ErrCode::ShedBudget) }.encode();
                return (shed, Some(frame));
            }
        }

        let (cost, result) = self.dispatch(req, p.door, start);
        self.metrics.served += 1;
        if let Ok(Reply::Setup { reserved: true, .. }) = &result {
            self.metrics.admit_latency.record((start + cost).since(p.arrival).as_ns());
        }
        let frame = Response { id: req.id, result }.encode();
        (cost, Some(frame))
    }

    fn dispatch(
        &mut self,
        req: &Request,
        door: Mode,
        start: SimTime,
    ) -> (SimDuration, Result<Reply, ErrCode>) {
        let cost = self.cost_of(&req.op);
        let shed = self.cfg.costs.shed;
        match &req.op {
            Op::Ping => (cost, Ok(Reply::Pong)),
            Op::Query => {
                let q = QueryStats {
                    mode: self.mode.as_u8(),
                    flows: self.flows.len() as u64,
                    digest: self.control_digest(),
                    served: self.metrics.served,
                    shed_overload: self.metrics.shed_overload,
                    shed_budget: self.metrics.shed_budget,
                    journal_bytes: self.store.journal.len() as u64,
                    snapshots: self.metrics.snapshots,
                };
                (cost, Ok(Reply::Query(q)))
            }
            Op::Stamp { flow, len, parts } => {
                let stamp_at = start + cost;
                match self.flows.get_mut(flow) {
                    None => (cost, Err(ErrCode::UnknownFlow)),
                    Some(e) => {
                        let parts = (*parts).max(1);
                        let t = e.stamper.stamp(stamp_at, *len, parts);
                        (
                            cost,
                            Ok(Reply::Stamp {
                                deadline_ns: t.deadline.as_ns(),
                                eligible_ns: t.eligible.map(|x| x.as_ns()),
                            }),
                        )
                    }
                }
            }
            Op::Setup { class, src, dst, bw_bytes_per_sec } => {
                let class = *class;
                match (door, class) {
                    (Mode::StampOnly, _) => {
                        self.metrics.shed_overload += 1;
                        let code = if class == ReqClass::Guaranteed {
                            ErrCode::StampOnly
                        } else {
                            ErrCode::ShedOverload
                        };
                        return (shed, Err(code));
                    }
                    (Mode::ShedBestEffort, ReqClass::BestEffort) => {
                        self.metrics.shed_overload += 1;
                        return (shed, Err(ErrCode::ShedOverload));
                    }
                    _ => {}
                }
                if *src >= self.net.n_hosts() || *dst >= self.net.n_hosts() || src == dst {
                    return (cost, Err(ErrCode::Malformed));
                }
                let bw = Bandwidth::bytes_per_sec(*bw_bytes_per_sec);
                let (choice, reserved) = match class {
                    ReqClass::Guaranteed => {
                        match self.ac.admit_choice(&self.net, HostId(*src), HostId(*dst), bw) {
                            Ok(choice) => (choice, true),
                            Err(AdmissionError::NoUsablePath) => {
                                return (cost, Err(ErrCode::NoUsablePath))
                            }
                            Err(_) => return (cost, Err(ErrCode::NoCapacity)),
                        }
                    }
                    ReqClass::BestEffort => {
                        let _ = self.ac.assign_unregulated_choice(
                            &self.net,
                            HostId(*src),
                            HostId(*dst),
                        );
                        (0, false)
                    }
                };
                let flow = self.next_flow;
                self.next_flow += 1;
                let rec = FlowRec {
                    flow,
                    class,
                    src: *src,
                    dst: *dst,
                    bw: *bw_bytes_per_sec,
                    choice,
                    reserved,
                };
                let stamper =
                    Stamper::new(DeadlineMode::AvgBandwidth(Bandwidth::bytes_per_sec(rec.bw)));
                self.flows.insert(flow, FlowEntry { rec, stamper });
                let reply = Reply::Setup { flow, choice, reserved };
                self.commit(
                    Record::Setup {
                        client: req.client,
                        req: req.id,
                        flow,
                        class,
                        src: *src,
                        dst: *dst,
                        bw: *bw_bytes_per_sec,
                        choice,
                        reserved,
                    },
                    req,
                    &reply,
                );
                (cost, Ok(reply))
            }
            Op::Teardown { flow } => {
                let Some(entry) = self.flows.get(flow) else {
                    return (cost, Err(ErrCode::UnknownFlow));
                };
                if release_reserved(&mut self.ac, &self.net, &entry.rec).is_err() {
                    // The ledger refused a release it granted: state
                    // corruption. Surface loudly, mutate nothing.
                    return (cost, Err(ErrCode::Internal));
                }
                self.flows.remove(flow);
                let reply = Reply::Teardown;
                self.commit(
                    Record::Teardown { client: req.client, req: req.id, flow: *flow },
                    req,
                    &reply,
                );
                (cost, Ok(reply))
            }
            Op::FailLink { link } => {
                if *link >= self.net.n_links() {
                    return (cost, Err(ErrCode::BadLink));
                }
                self.ac.fail_link(LinkId(*link));
                let reply = Reply::LinkSet;
                self.commit(
                    Record::LinkDown { client: req.client, req: req.id, link: *link },
                    req,
                    &reply,
                );
                (cost, Ok(reply))
            }
            Op::RestoreLink { link } => {
                if *link >= self.net.n_links() {
                    return (cost, Err(ErrCode::BadLink));
                }
                self.ac.restore_link(LinkId(*link));
                let reply = Reply::LinkSet;
                self.commit(
                    Record::LinkUp { client: req.client, req: req.id, link: *link },
                    req,
                    &reply,
                );
                (cost, Ok(reply))
            }
        }
    }

    /// Commit one mutation: journal it, update the dedup session, and
    /// snapshot if due — all *before* the response leaves the daemon
    /// (write-ahead ordering).
    fn commit(&mut self, rec: Record, req: &Request, reply: &Reply) {
        append_record(&mut self.store.journal, &rec);
        self.metrics.journal_records += 1;
        self.records_since_snapshot += 1;
        let frame = Response { id: req.id, result: Ok(reply.clone()) }.encode();
        self.sessions.insert(req.client, Session { last_req: req.id, reply: frame });
        if self.cfg.record_digest_trail {
            self.trail.push((self.store.journal.len() as u64, self.control_digest()));
        }
        if self.cfg.snapshot_every > 0 && self.records_since_snapshot >= self.cfg.snapshot_every {
            self.take_snapshot();
        }
    }

    /// Snapshot the control state and truncate the journal.
    pub fn take_snapshot(&mut self) {
        let persist = self.persist();
        self.store.snapshot = encode_snapshot(&persist);
        self.store.journal.clear();
        self.records_since_snapshot = 0;
        self.metrics.snapshots += 1;
    }

    fn persist(&self) -> Persist {
        Persist {
            next_flow: self.next_flow,
            admission: Some(self.ac.export_state()),
            flows: self.flows.values().map(|e| e.rec.clone()).collect(),
            sessions: self
                .sessions
                .iter()
                .map(|(client, s)| SessionRec {
                    client: *client,
                    last_req: s.last_req,
                    reply: s.reply.clone(),
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(client: u64, id: u64, op: Op) -> Vec<u8> {
        Request { client, id, budget_ns: NO_BUDGET, op }.encode()
    }

    fn drive(d: &mut Daemon, now: SimTime, frame: Vec<u8>) -> Vec<Response> {
        d.ingest(now, &frame);
        let mut out = Vec::new();
        // Drain: serve everything currently queued by polling at the
        // daemon's own wake times.
        while let Some(w) = d.next_wake() {
            d.poll(w.max(now), &mut out);
            if d.queue_depth() == 0 {
                break;
            }
        }
        out.iter().map(|o| Response::decode(&o.frame).unwrap()).collect()
    }

    fn setup_op(src: u32, dst: u32) -> Op {
        Op::Setup {
            class: ReqClass::Guaranteed,
            src,
            dst,
            bw_bytes_per_sec: 125_000_000,
        }
    }

    #[test]
    fn setup_stamp_teardown_lifecycle() {
        let mut d = Daemon::new(DaemonConfig::default());
        let rs = drive(&mut d, SimTime::ZERO, req(1, 1, setup_op(0, 100)));
        let Reply::Setup { flow, reserved, .. } = rs[0].result.clone().unwrap() else {
            panic!("want setup reply, got {rs:?}");
        };
        assert!(reserved);
        assert_eq!(d.n_flows(), 1);

        let rs = drive(
            &mut d,
            SimTime::from_us(10),
            req(1, 2, Op::Stamp { flow, len: 1000, parts: 1 }),
        );
        let Reply::Stamp { deadline_ns, .. } = rs[0].result.clone().unwrap() else {
            panic!("want stamp reply");
        };
        // 1000 bytes at 125 MB/s = 8 us past the stamp instant.
        assert!(deadline_ns >= SimTime::from_us(18).as_ns());

        let rs = drive(&mut d, SimTime::from_us(20), req(1, 3, Op::Teardown { flow }));
        assert_eq!(rs[0].result, Ok(Reply::Teardown));
        assert_eq!(d.n_flows(), 0);
        assert_eq!(d.ac_digest_is_clean(), true);
    }

    impl Daemon {
        fn ac_digest_is_clean(&self) -> bool {
            self.ac.total_reserved() == 0
        }
    }

    #[test]
    fn duplicate_mutation_replays_cached_response() {
        let mut d = Daemon::new(DaemonConfig::default());
        let frame = req(7, 1, setup_op(0, 99));
        let first = drive(&mut d, SimTime::ZERO, frame.clone());
        let second = drive(&mut d, SimTime::from_us(50), frame);
        assert_eq!(first[0], second[0], "retry must see the identical response");
        assert_eq!(d.n_flows(), 1, "the mutation applied once");
        assert_eq!(d.metrics().duplicates, 1);
    }

    #[test]
    fn stale_duplicate_is_dropped_silently() {
        let mut d = Daemon::new(DaemonConfig::default());
        drive(&mut d, SimTime::ZERO, req(7, 5, setup_op(0, 99)));
        drive(&mut d, SimTime::from_us(10), req(7, 6, setup_op(1, 99)));
        let rs = drive(&mut d, SimTime::from_us(20), req(7, 5, setup_op(0, 99)));
        assert!(rs.is_empty(), "stale duplicate must get no answer");
        assert_eq!(d.metrics().stale_dropped, 1);
    }

    #[test]
    fn budget_bust_is_shed_with_retryable_error() {
        let mut d = Daemon::new(DaemonConfig::default());
        // Budget smaller than the setup cost: can never be met.
        let r = Request { client: 1, id: 1, budget_ns: 100, op: setup_op(0, 100) };
        let rs = drive(&mut d, SimTime::ZERO, r.encode());
        assert_eq!(rs[0].result, Err(ErrCode::ShedBudget));
        assert!(ErrCode::ShedBudget.retryable());
        assert_eq!(d.n_flows(), 0);
        assert_eq!(d.metrics().shed_budget, 1);
    }

    #[test]
    fn overload_sheds_best_effort_first_then_all_admission() {
        let cfg = DaemonConfig { shed_depth: 4, stamp_only_depth: 8, ..DaemonConfig::default() };
        let mut d = Daemon::new(cfg);
        // Flood without polling: queue depth crosses both watermarks.
        for i in 0..4 {
            d.ingest(SimTime::ZERO, &req(1, i + 1, setup_op(i as u32, 100)));
        }
        assert_eq!(d.mode(), Mode::ShedBestEffort);
        for i in 4..8 {
            d.ingest(SimTime::ZERO, &req(1, i + 1, setup_op(i as u32, 100)));
        }
        assert_eq!(d.mode(), Mode::StampOnly);
        // A best-effort setup queued now is refused when served.
        d.ingest(
            SimTime::ZERO,
            &req(
                2,
                1,
                Op::Setup { class: ReqClass::BestEffort, src: 9, dst: 100, bw_bytes_per_sec: 1 },
            ),
        );
        let mut out = Vec::new();
        d.poll(SimTime::from_ms(1), &mut out);
        let responses: Vec<Response> =
            out.iter().map(|o| Response::decode(&o.frame).unwrap()).collect();
        let best = responses.iter().find(|r| r.id == 1 && r.result.is_err()).unwrap();
        assert_eq!(best.result, Err(ErrCode::ShedOverload));
    }

    #[test]
    fn guaranteed_queue_is_served_before_best_effort() {
        let mut d = Daemon::new(DaemonConfig::default());
        let be = Request {
            client: 1,
            id: 1,
            budget_ns: NO_BUDGET,
            op: Op::Setup { class: ReqClass::BestEffort, src: 0, dst: 100, bw_bytes_per_sec: 1 },
        };
        d.ingest(SimTime::ZERO, &be.encode());
        d.ingest(SimTime::ZERO, &req(2, 1, setup_op(1, 101)));
        let mut out = Vec::new();
        d.poll(SimTime::from_ms(1), &mut out);
        assert_eq!(out.len(), 2);
        // The guaranteed setup (client 2) completes first despite
        // arriving second.
        assert_eq!(out[0].client, 2);
        assert!(out[0].at < out[1].at);
    }

    #[test]
    fn recover_from_empty_store_is_fresh() {
        let d = Daemon::recover(DaemonConfig::default(), &Store::new()).unwrap();
        assert_eq!(d.n_flows(), 0);
        assert_eq!(d.control_digest(), Daemon::new(DaemonConfig::default()).control_digest());
    }

    #[test]
    fn recover_replays_to_bit_identical_state() {
        let cfg = DaemonConfig { snapshot_every: 3, ..DaemonConfig::default() };
        let mut d = Daemon::new(cfg.clone());
        let mut t = SimTime::ZERO;
        for i in 0..10u64 {
            t = t + SimDuration::from_us(50);
            drive(&mut d, t, req(1, i + 1, setup_op(i as u32, 100 + i as u32)));
        }
        drive(&mut d, t + SimDuration::from_us(50), req(1, 11, Op::Teardown { flow: 3 }));
        drive(&mut d, t + SimDuration::from_us(99), req(2, 1, Op::FailLink { link: 5 }));
        assert!(d.metrics().snapshots > 0, "snapshots must have fired");
        let recovered = Daemon::recover(cfg, d.store()).unwrap();
        assert_eq!(recovered.control_digest(), d.control_digest());
        assert_eq!(recovered.n_flows(), d.n_flows());
    }

    #[test]
    fn recover_rejects_a_reserved_flow_on_a_path_the_topology_lacks() {
        // A reserved flow is released by its path choice, so recovery
        // checks the choice up front: spine 8 does not exist on the
        // paper fabric's eight spines, and a self-pair has no path.
        for (src, dst, choice) in [(0, 100, 8), (3, 3, 0)] {
            let flow = FlowRec {
                flow: 1,
                class: ReqClass::Guaranteed,
                src,
                dst,
                bw: 100,
                choice,
                reserved: true,
            };
            let persist = Persist { next_flow: 2, flows: vec![flow], ..Persist::default() };
            let store = Store { snapshot: encode_snapshot(&persist), journal: Vec::new() };
            let err = Daemon::recover(DaemonConfig::default(), &store).err();
            assert_eq!(
                err,
                Some(RecoverError::Divergence {
                    flow: 1,
                    detail: "path choice out of range for topology"
                })
            );
        }
    }

    #[test]
    fn recover_from_torn_journal_keeps_the_valid_prefix() {
        let cfg = DaemonConfig { snapshot_every: 0, ..DaemonConfig::default() };
        let mut d = Daemon::new(cfg.clone());
        let mut digests = vec![(0usize, d.control_digest())];
        let mut t = SimTime::ZERO;
        for i in 0..6u64 {
            t = t + SimDuration::from_us(50);
            drive(&mut d, t, req(1, i + 1, setup_op(i as u32, 100 + i as u32)));
            digests.push((d.store().journal.len(), d.control_digest()));
        }
        let journal_len = d.store().journal.len();
        for cut in 0..=journal_len {
            let store = d.store().truncated(cut);
            let rec = Daemon::recover(cfg.clone(), &store).unwrap();
            // The recovered digest must equal the live digest at the
            // largest mutation boundary the cut preserves.
            let want = digests.iter().rev().find(|(l, _)| *l <= cut).unwrap().1;
            assert_eq!(rec.control_digest(), want, "cut at {cut}");
        }
    }
}
