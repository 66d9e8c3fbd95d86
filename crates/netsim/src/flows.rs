//! Per-host flow records and fixed-route assignment.
//!
//! This is where the paper's host-side state lives:
//!
//! * **Video** flows are admitted individually through the centralised
//!   [`AdmissionController`], get a reserved route,
//!   [`DeadlineMode::FrameSpread`] deadlines (10 ms target) and optional
//!   eligible-time smoothing.
//! * **Control** uses one aggregated record per host with
//!   [`DeadlineMode::FullLink`] (no admission, maximum priority) and a
//!   per-(src,dst) fixed path.
//! * **Best-effort / Background** use one aggregated record per host and
//!   class with [`DeadlineMode::AvgBandwidth`] at the configured weight
//!   (this is how two classes are differentiated inside one VC), and
//!   per-(src,dst) fixed paths assigned round-robin over spines.
//!
//! Flow ids, in contrast, identify *delivery-order domains*: one per
//! (src, dst, class) for the aggregated classes (each such triple has a
//! fixed route, so the appendix's in-order guarantee applies to it) and
//! one per video stream.
//!
//! ## Layout and replication
//!
//! The table is built for the partitioned runtime, in which every
//! partition owns a replica (see `crate::runtime`):
//!
//! * **Flow ids are static arithmetic**, not handed out on first use:
//!   video streams take `[0, V)` ordered by `(dst, src, stream)`, and
//!   aggregated ids are `V + (dst·n + src)·3 + class`, so every id is a
//!   pure function of the flow — independent of which packet happened to
//!   need it first — and every *destination* owns two contiguous id
//!   ranges (its sink sizes dense tables off [`FlowTable::sink_bands`]).
//! * **Aggregated routes are assigned eagerly** for all (src, dst)
//!   pairs at construction, in src-major order, consuming the admission
//!   controller's per-leaf round-robin exactly as the lazy version did —
//!   but canonically, so the assignment never depends on traffic order.
//! * **Records are route-free**: a flow stores its path choice (spine
//!   index); the [`PortPath`] its packets carry and the links it
//!   reserves, crosses or releases are read from the topology by that
//!   choice (aggregated pairs also keep their interned path). No
//!   [`dqos_topology::Route`] is built while the table is constructed or
//!   maintained.
//! * **A video record is its register**: 80 000 streams on the paper
//!   fabric all stamp in one mode, so a [`VideoFlow`] keeps only its
//!   previous deadline beside its id, destination, choice and
//!   reservation flag (24 bytes).
//! * **No locks.** A replica is touched only by its own partition's
//!   worker, so the table is plain data: stamping takes `&mut self`,
//!   paths and ids are plain reads, and topology-wide mutation
//!   ([`FlowTable::fail_links`] / [`FlowTable::restore_links`]) runs on
//!   each replica at the same epoch of its local timeline.

use dqos_core::{
    AdmissionController, Architecture, DeadlineMode, FlowId, Stamper, StampedTimes, TrafficClass,
    NUM_CLASSES,
};
use dqos_sim_core::{Bandwidth, SimDuration, SimTime};
use dqos_topology::{FoldedClos, HostId, LinkId, PortPath};

/// One host's video stream: what differs between a host's streams.
///
/// Every video flow stamps in the table's one video mode (frame spread
/// by default), so the record keeps only its Virtual-Clock register —
/// the previous packet's deadline — and its route as a path choice: the
/// packets' [`PortPath`] is `FoldedClos::port_path(src, dst, choice)`.
#[derive(Debug, Clone, Copy)]
pub struct VideoFlow {
    /// Flow id (delivery-order domain).
    pub id: FlowId,
    /// Destination host.
    pub dst: HostId,
    /// Deadline of the stream's previous packet.
    pub last_deadline: SimTime,
    /// Path choice of the admitted (or fallback) route: the spine index,
    /// or 0 for an intra-leaf pair. `FoldedClos::route(src, dst, choice)`
    /// is the route; the admission ledger reads its links by choice.
    pub choice: u16,
    /// Whether the route currently holds a bandwidth reservation in the
    /// admission ledger. `false` for admission fallbacks and for flows
    /// rejected during degraded (post-failure) operation.
    pub reserved: bool,
}

// A widened field must fail the build: the paper fabric keeps 80 000.
const _: () = assert!(std::mem::size_of::<VideoFlow>() <= 24);

/// What a round of degraded-mode route maintenance did (link failure or
/// repair): counts accumulated into the run summary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RerouteStats {
    /// Regulated flows moved to a surviving path with their reservation
    /// intact.
    pub rerouted: u32,
    /// Regulated flows that no longer fit anywhere: reservation revoked,
    /// now flowing unregulated.
    pub rejected: u32,
    /// Previously rejected flows whose reservation was re-established
    /// after a repair.
    pub readmitted: u32,
    /// Aggregated (src, dst) routes re-assigned because they crossed a
    /// failed link — a path change for every aggregated flow on that
    /// (src, dst) pair, so it excuses transition-window reordering the
    /// same way an explicit reroute does.
    pub invalidated: u32,
}

impl RerouteStats {
    /// Accumulate another round's counts.
    pub fn absorb(&mut self, other: RerouteStats) {
        self.rerouted += other.rerouted;
        self.rejected += other.rejected;
        self.readmitted += other.readmitted;
        self.invalidated += other.invalidated;
    }
}

/// A point-in-time view of the admission ledger, embedded in stall
/// snapshots (see [`crate::StallSnapshot`]) so "the fabric wedged" comes
/// with the admission pressure that surrounded it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionDiag {
    /// Reserved (admitted) bandwidth per traffic class, bytes/s,
    /// `TrafficClass::idx()`-indexed. Only live reservations count:
    /// video that fell back to an unregulated path is excluded.
    pub admitted_bw: [u64; NUM_CLASSES],
    /// Reserved flows currently outstanding in the ledger.
    pub outstanding: u64,
    /// Admissions that fell back to unregulated paths (cumulative).
    pub fallbacks: u32,
}

/// Per-host flow state.
#[derive(Clone)]
pub struct HostFlows {
    /// Per-stream video flows, indexed by stream id.
    pub video: Vec<VideoFlow>,
    /// Aggregated control record.
    pub control: Stamper,
    /// Aggregated best-effort records: `[BestEffort, Background]`.
    pub best_effort: [Stamper; 2],
}

/// The fleet's flow table (module docs). Cloning it makes a replica:
/// the free-running executor gives every partition its own (epoch
/// mutations — link failures and repairs — are deterministic functions
/// of the plan and the ledger, so replicas that apply the same epochs
/// stay identical).
#[derive(Clone)]
pub struct FlowTable {
    n_hosts: u32,
    /// Total video streams; aggregated ids start here.
    video_total: u32,
    hosts: Vec<HostFlows>,
    /// All-pairs aggregated routes as `(choice, path)`, `src * n + dst`
    /// indexed (`None` on the diagonal — hosts never send to
    /// themselves).
    agg_pairs: Vec<Option<(u16, PortPath)>>,
    admission: AdmissionController,
    /// Admissions that fell back to unregulated paths (cumulative).
    fallbacks: u32,
    /// Per-destination `(first_id, count)` of its video flow-id range.
    video_band: Vec<(u32, u32)>,
    uses_deadlines: bool,
    /// The deadline mode every video flow stamps in.
    video_mode: DeadlineMode,
    /// Per-stream video bandwidth, kept for degraded-mode re-admission.
    video_bw: Bandwidth,
}

/// Position of a class inside a (src, dst) aggregated id triple.
fn agg_ord(class: TrafficClass) -> u32 {
    match class {
        TrafficClass::Control => 0,
        TrafficClass::BestEffort => 1,
        TrafficClass::Background => 2,
        // tidy: allow(no-unwrap) -- callers are class-dispatched; reaching
        // here with Multimedia is a simulator bug, not a runtime condition.
        TrafficClass::Multimedia => panic!("video flows are per-stream, not aggregated"),
    }
}

impl FlowTable {
    /// Build the table: admit every video stream (destinations provided
    /// per host), create the aggregated records, assign every
    /// aggregated route.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        net: &FoldedClos,
        arch: Architecture,
        link_bw: Bandwidth,
        video_dsts: &[Vec<HostId>],
        video_stream_bw: Bandwidth,
        video_mode: DeadlineMode,
        eligible_lead: Option<SimDuration>,
        be_weights: (f64, f64),
    ) -> Self {
        let n_hosts = net.n_hosts();
        assert_eq!(video_dsts.len(), n_hosts as usize);
        let mut admission = AdmissionController::new(net, link_bw, 1.0);
        let mut fallbacks = 0;
        let mut hosts = Vec::with_capacity(n_hosts as usize);
        let _ = eligible_lead; // smoothing is applied at stamping time
        // Admission runs in (src, stream) order — the ledger's outcome
        // (who gets reserved, over which spine) is defined by that order.
        for (h, dsts) in video_dsts.iter().enumerate() {
            let src = HostId(h as u32);
            let mut video = Vec::with_capacity(dsts.len());
            for &dst in dsts {
                let (choice, reserved) =
                    match admission.admit_choice(net, src, dst, video_stream_bw) {
                        Ok(choice) => (choice, true),
                        Err(_) => {
                            fallbacks += 1;
                            (admission.assign_unregulated_choice(net, src, dst), false)
                        }
                    };
                video.push(VideoFlow {
                    id: FlowId(u32::MAX), // assigned below, (dst, src, stream)-sorted
                    dst,
                    last_deadline: SimTime::ZERO,
                    choice,
                    reserved,
                });
            }
            hosts.push(HostFlows {
                video,
                control: Stamper::new(DeadlineMode::FullLink(link_bw)),
                best_effort: [
                    Stamper::new(DeadlineMode::AvgBandwidth(link_bw.scaled(be_weights.0))),
                    Stamper::new(DeadlineMode::AvgBandwidth(link_bw.scaled(be_weights.1))),
                ],
            });
        }
        // Second pass: video ids in (dst, src, stream) order, so every
        // destination's flows are one contiguous id range. A counting
        // sort by dst suffices: the walk below is already src-major and
        // stream-minor, so within a destination ids come out in
        // (src, stream) order.
        let mut video_band = vec![(0u32, 0u32); n_hosts as usize];
        for hf in &hosts {
            for v in &hf.video {
                video_band[v.dst.idx()].1 += 1;
            }
        }
        let mut next_id = Vec::with_capacity(n_hosts as usize);
        let mut video_total = 0u32;
        for band in &mut video_band {
            if band.1 > 0 {
                band.0 = video_total;
            }
            next_id.push(video_total);
            video_total += band.1;
        }
        for hf in &mut hosts {
            for v in &mut hf.video {
                let next = &mut next_id[v.dst.idx()];
                v.id = FlowId(*next);
                *next += 1;
            }
        }
        // Eager all-pairs aggregated routes, src-major: exactly the
        // round-robin consumption order of one host priming its own
        // routes in dst order, but canonical.
        let mut pairs = Vec::with_capacity((n_hosts * n_hosts) as usize);
        for src in 0..n_hosts {
            for dst in 0..n_hosts {
                if src == dst {
                    pairs.push(None);
                } else {
                    let (src, dst) = (HostId(src), HostId(dst));
                    let choice = admission.assign_unregulated_choice(net, src, dst);
                    pairs.push(Some((choice, net.port_path(src, dst, choice))));
                }
            }
        }
        FlowTable {
            n_hosts,
            video_total,
            hosts,
            agg_pairs: pairs,
            admission,
            fallbacks,
            video_band,
            uses_deadlines: arch.uses_deadlines(),
            video_mode,
            video_bw: video_stream_bw,
        }
    }

    /// Degraded-mode response to `links` going down.
    ///
    /// Every regulated flow whose fixed route crosses a failed link has
    /// its reservation revoked and is re-admitted over the surviving
    /// paths; flows that no longer fit anywhere keep flowing on an
    /// unregulated fallback path (and count as rejections — plus
    /// [`FlowTable::admission_fallbacks`], which tier-1 tests watch).
    /// Aggregated routes crossing a failed link are re-assigned over
    /// surviving spines, in src-major order.
    ///
    /// Called at epoch fences, on every replica.
    pub fn fail_links(&mut self, net: &FoldedClos, links: &[LinkId]) -> RerouteStats {
        let admission = &mut self.admission;
        for &l in links {
            admission.fail_link(l);
        }
        let mut stats = RerouteStats::default();
        for (h, host) in self.hosts.iter_mut().enumerate() {
            let src = HostId(h as u32);
            for flow in &mut host.video {
                if admission.path_is_up(net, src, flow.dst, flow.choice) {
                    continue;
                }
                if flow.reserved {
                    admission
                        .release_choice(net, src, flow.dst, flow.choice, self.video_bw)
                        // tidy: allow(no-unwrap) -- the ledger held this
                        // exact reservation; release cannot fail here.
                        .expect("revoking an admitted route");
                }
                match admission.admit_choice(net, src, flow.dst, self.video_bw) {
                    Ok(choice) => {
                        flow.choice = choice;
                        flow.reserved = true;
                        stats.rerouted += 1;
                    }
                    Err(_) => {
                        flow.choice = admission.assign_unregulated_choice(net, src, flow.dst);
                        if flow.reserved {
                            stats.rejected += 1;
                            self.fallbacks += 1;
                        }
                        flow.reserved = false;
                    }
                }
            }
        }
        for (i, pair) in self.agg_pairs.iter_mut().enumerate() {
            let Some((choice, path)) = pair else { continue };
            let src = HostId((i as u32) / self.n_hosts);
            let dst = HostId((i as u32) % self.n_hosts);
            if admission.path_is_up(net, src, dst, *choice) {
                continue;
            }
            *choice = admission.assign_unregulated_choice(net, src, dst);
            *path = net.port_path(src, dst, *choice);
            stats.invalidated += 1;
        }
        stats
    }

    /// Repair response: `links` are healthy again; previously rejected
    /// flows are re-admitted where capacity allows. Flows rerouted while
    /// the links were down keep their (reserved) detour routes — fixed
    /// routing means a repair must not shuffle working flows, and
    /// aggregated routes likewise stay where failure put them.
    ///
    /// Called at epoch fences, on every replica.
    pub fn restore_links(&mut self, net: &FoldedClos, links: &[LinkId]) -> RerouteStats {
        for &l in links {
            self.admission.restore_link(l);
        }
        let mut stats = RerouteStats::default();
        for (h, host) in self.hosts.iter_mut().enumerate() {
            let src = HostId(h as u32);
            for flow in &mut host.video {
                if flow.reserved {
                    continue;
                }
                if let Ok(choice) = self.admission.admit_choice(net, src, flow.dst, self.video_bw)
                {
                    flow.choice = choice;
                    flow.reserved = true;
                    stats.readmitted += 1;
                }
            }
        }
        stats
    }

    /// Total flow ids in the static layout: every video stream plus one
    /// id per (src, dst, aggregated class) triple.
    pub fn n_flows(&self) -> u32 {
        self.video_total + self.n_hosts * self.n_hosts * 3
    }

    /// Video streams admitted (ids `[0, video_total)`).
    pub fn video_total(&self) -> u32 {
        self.video_total
    }

    /// The two contiguous flow-id ranges host `dst` terminates, as
    /// `(first_id, count)`: its video range and its aggregated range.
    /// Sinks pre-size dense reassembly tables from this.
    pub fn sink_bands(&self, dst: HostId) -> [(u32, u32); 2] {
        let agg_base = self.video_total + dst.0 * self.n_hosts * 3;
        [self.video_band[dst.idx()], (agg_base, self.n_hosts * 3)]
    }

    /// Video streams that could not be admitted and run unreserved
    /// (should stay 0 at Table-1 loads).
    pub fn admission_fallbacks(&self) -> u32 {
        self.fallbacks
    }

    /// Run `f` against the admission ledger (diagnostics).
    pub fn with_admission<R>(&self, f: impl FnOnce(&AdmissionController) -> R) -> R {
        f(&self.admission)
    }

    /// Admission-side diagnostics: what the ledger holds right now.
    /// Stall snapshots embed this so a wedged run's error message says
    /// how much regulated bandwidth was admitted when it died.
    pub fn admission_diag(&self) -> AdmissionDiag {
        let mut admitted_bw = [0u64; NUM_CLASSES];
        let mut outstanding = 0u64;
        for host in &self.hosts {
            for v in &host.video {
                if v.reserved {
                    outstanding += 1;
                    admitted_bw[TrafficClass::Multimedia.idx()] +=
                        self.video_bw.as_bytes_per_sec();
                }
            }
        }
        AdmissionDiag { admitted_bw, outstanding, fallbacks: self.fallbacks }
    }

    /// The path choice of the fixed route for an aggregated-class packet
    /// from `src` to `dst` (assigned round-robin over spines at
    /// construction, then fixed until a link failure forces it off a
    /// dead spine). This is the validation view; the hot path uses
    /// [`FlowTable::aggregated_path`].
    pub fn aggregated_choice(&self, src: HostId, dst: HostId) -> u16 {
        self.agg_pairs[(src.0 * self.n_hosts + dst.0) as usize]
            .as_ref()
            // tidy: allow(no-unwrap) -- only the src == dst diagonal is
            // None, and hosts never ask for a route to themselves.
            .expect("no self-routes")
            .0
    }

    /// The interned output-port path for an aggregated-class (src, dst)
    /// pair — `Copy`, no allocation, what packets actually carry.
    #[inline]
    pub fn aggregated_path(&self, src: HostId, dst: HostId) -> PortPath {
        self.agg_pairs[(src.0 * self.n_hosts + dst.0) as usize]
            .as_ref()
            // tidy: allow(no-unwrap) -- only the src == dst diagonal is
            // None, and hosts never ask for a path to themselves.
            .expect("no self-routes")
            .1
    }

    /// The flow id for an aggregated-class (src, dst, class) triple —
    /// pure arithmetic on the static layout, dst-major so each
    /// destination's ids are contiguous.
    #[inline]
    pub fn aggregated_flow_id(&self, src: HostId, dst: HostId, class: TrafficClass) -> FlowId {
        FlowId(self.video_total + (dst.0 * self.n_hosts + src.0) * 3 + agg_ord(class))
    }

    /// Run `f` against one host's flow state (tests/diagnostics).
    pub fn with_host<R>(&self, src: HostId, f: impl FnOnce(&HostFlows) -> R) -> R {
        f(&self.hosts[src.idx()])
    }

    /// Stamp one message's parts for an aggregated class, appending the
    /// stamps to `out` (a caller's reusable buffer). Zero deadlines (and
    /// no eligible times) under the Traditional architecture, which has
    /// no deadline machinery at all.
    pub fn stamp_aggregated(
        &mut self,
        src: HostId,
        class: TrafficClass,
        now_local: SimTime,
        part_sizes: &[u32],
        out: &mut Vec<StampedTimes>,
    ) {
        if !self.uses_deadlines {
            out.extend(part_sizes.iter().map(|_| UNSTAMPED));
            return;
        }
        let host = &mut self.hosts[src.idx()];
        let stamper = match class {
            TrafficClass::Control => &mut host.control,
            TrafficClass::BestEffort => &mut host.best_effort[0],
            TrafficClass::Background => &mut host.best_effort[1],
            // tidy: allow(no-unwrap) -- video packets stamp through their
            // per-stream flow; aggregated stamping never sees Multimedia.
            TrafficClass::Multimedia => panic!("video stamps via its stream flow"),
        };
        stamper.stamp_message_into(now_local, part_sizes, out);
    }

    /// Stamp one video frame's parts, applying the eligible-time lead and
    /// appending the stamps to `out` (zero deadlines under Traditional,
    /// as above). Returns the stream's flow id, destination and path
    /// choice; its route is `FoldedClos::port_path(src, dst, choice)`.
    pub fn stamp_video(
        &mut self,
        src: HostId,
        stream: u32,
        now_local: SimTime,
        part_sizes: &[u32],
        eligible_lead: Option<SimDuration>,
        out: &mut Vec<StampedTimes>,
    ) -> (FlowId, HostId, u16) {
        let flow = &mut self.hosts[src.idx()].video[stream as usize];
        if !self.uses_deadlines {
            out.extend(part_sizes.iter().map(|_| UNSTAMPED));
        } else {
            let parts = part_sizes.len() as u32;
            for &len in part_sizes {
                let deadline =
                    self.video_mode.next_deadline(flow.last_deadline, now_local, len, parts);
                flow.last_deadline = deadline;
                let eligible =
                    eligible_lead.map(|lead| deadline.saturating_sub(lead).max(now_local));
                out.push(StampedTimes { deadline, eligible });
            }
        }
        (flow.id, flow.dst, flow.choice)
    }
}

/// What a packet carries when the architecture stamps nothing.
const UNSTAMPED: StampedTimes = StampedTimes { deadline: SimTime::ZERO, eligible: None };

#[cfg(test)]
mod tests {
    use super::*;
    use dqos_topology::ClosParams;

    fn table(video_per_host: usize) -> (FoldedClos, FlowTable) {
        let net = FoldedClos::build(ClosParams::scaled(16));
        let dsts: Vec<Vec<HostId>> = (0..16u32)
            .map(|h| (0..video_per_host).map(|s| HostId((h + 1 + s as u32) % 16)).collect())
            .collect();
        let ft = FlowTable::new(
            &net,
            Architecture::Advanced2Vc,
            Bandwidth::gbps(8),
            &dsts,
            Bandwidth::bytes_per_sec(400_000),
            DeadlineMode::FrameSpread { target: SimDuration::from_ms(10) },
            Some(SimDuration::from_us(20)),
            (2.0 / 3.0, 1.0 / 3.0),
        );
        (net, ft)
    }

    #[test]
    fn video_flows_admitted_with_routes() {
        let (net, ft) = table(4);
        assert_eq!(ft.admission_fallbacks(), 0);
        assert_eq!(ft.video_total(), 64);
        for h in 0..16u32 {
            ft.with_host(HostId(h), |hf| {
                for v in &hf.video {
                    net.check_route(&net.route(HostId(h), v.dst, v.choice)).unwrap();
                }
            });
        }
        assert!(ft.with_admission(|a| a.max_utilization()) > 0.0);
    }

    #[test]
    fn video_ids_are_dst_contiguous() {
        let (_, ft) = table(4);
        // Collect every (dst, src, stream, id); ids must be exactly the
        // (dst, src, stream)-sorted enumeration.
        let mut rows = Vec::new();
        for src in 0..16u32 {
            ft.with_host(HostId(src), |hf| {
                for (s, v) in hf.video.iter().enumerate() {
                    rows.push((v.dst.0, src, s as u32, v.id.0));
                }
            });
        }
        rows.sort_unstable();
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.3, i as u32, "(dst,src,stream)-sorted ids are sequential");
        }
        // Bands cover each destination's flows exactly.
        for dst in 0..16u32 {
            let [(base, count), _] = ft.sink_bands(HostId(dst));
            let mine: Vec<u32> =
                rows.iter().filter(|r| r.0 == dst).map(|r| r.3).collect();
            assert_eq!(mine.len() as u32, count);
            if count > 0 {
                assert_eq!(mine[0], base);
                assert_eq!(*mine.last().unwrap(), base + count - 1);
            }
        }
    }

    /// Build a table over `params` with `streams` video streams per host
    /// at `stream_bw`, destinations spread so most (src, dst) pairs carry
    /// several streams.
    fn spread_table(
        params: ClosParams,
        streams: u32,
        stream_bw: Bandwidth,
    ) -> (FoldedClos, FlowTable) {
        let net = FoldedClos::build(params);
        let n = net.n_hosts();
        let dsts: Vec<Vec<HostId>> = (0..n)
            .map(|h| (0..streams).map(|s| HostId((h + 1 + (s * 67) % (n - 1)) % n)).collect())
            .collect();
        let ft = FlowTable::new(
            &net,
            Architecture::Advanced2Vc,
            Bandwidth::gbps(8),
            &dsts,
            stream_bw,
            DeadlineMode::FrameSpread { target: SimDuration::from_ms(10) },
            None,
            (2.0 / 3.0, 1.0 / 3.0),
        );
        (net, ft)
    }

    /// The route-free records against the plain definitions they
    /// replace: ids are ranks in a (dst, src, stream) sort, every stored
    /// path is the materialised route's, the choices are what the
    /// `Route`-returning admission API picks in the same order, and the
    /// ledger holds exactly the reserved flows.
    #[test]
    fn route_free_records_pin_ids_paths_and_choices() {
        let cases = [
            // The paper fabric at Table-1 video load: everything fits.
            (ClosParams::paper(), 625, Bandwidth::bytes_per_sec(400_000)),
            // A small fabric overloaded 4x: a mix of reserved flows and
            // unregulated fallbacks.
            (ClosParams::scaled(16), 40, Bandwidth::bytes_per_sec(100_000_000)),
        ];
        for (params, streams, bw) in cases {
            let (net, ft) = spread_table(params, streams, bw);
            let n = net.n_hosts();
            let mut oracle = AdmissionController::new(&net, Bandwidth::gbps(8), 1.0);
            let mut rows = Vec::new();
            let mut reserved_links = 0u64;
            let mut unreserved = 0u32;
            for src in 0..n {
                ft.with_host(HostId(src), |hf| {
                    for (s, v) in hf.video.iter().enumerate() {
                        rows.push((v.dst.0, src, s as u32, v.id.0));
                        let route = net.route(HostId(src), v.dst, v.choice);
                        let expect = match oracle.admit(&net, HostId(src), v.dst, bw) {
                            Ok(adm) => (adm.route, true),
                            Err(_) => {
                                let c = oracle.assign_unregulated_choice(&net, HostId(src), v.dst);
                                (net.route(HostId(src), v.dst, c), false)
                            }
                        };
                        assert_eq!((route.clone(), v.reserved), expect, "{src} stream {s}");
                        if v.reserved {
                            reserved_links += net.links_on_route(&route).len() as u64;
                        } else {
                            unreserved += 1;
                        }
                    }
                });
            }
            rows.sort_unstable();
            for (rank, row) in rows.iter().enumerate() {
                assert_eq!(row.3, rank as u32, "id is the (dst, src, stream) rank");
            }
            assert_eq!(ft.video_total(), rows.len() as u32);
            ft.with_admission(|a| {
                assert_eq!(a.total_reserved(), reserved_links * bw.as_bytes_per_sec());
            });
            assert_eq!(ft.admission_fallbacks(), unreserved);
            assert_eq!(
                unreserved == 0,
                params == ClosParams::paper(),
                "only the overload falls back"
            );
            for src in 0..n {
                for dst in 0..n {
                    if src == dst {
                        continue;
                    }
                    let (src, dst) = (HostId(src), HostId(dst));
                    let route = net.route(src, dst, ft.aggregated_choice(src, dst));
                    assert_eq!(ft.aggregated_path(src, dst), route.port_path());
                }
            }
        }
    }

    #[test]
    fn aggregated_routes_are_fixed() {
        let (net, ft) = table(0);
        let a = ft.aggregated_choice(HostId(0), HostId(9));
        let b = ft.aggregated_choice(HostId(0), HostId(9));
        assert_eq!(a, b, "route fixed after construction");
        let a = net.route(HostId(0), HostId(9), a);
        net.check_route(&a).unwrap();
        // The interned path mirrors the validated route.
        let p = ft.aggregated_path(HostId(0), HostId(9));
        assert_eq!(p, a.port_path());
        assert_eq!(p.len(), a.len());
    }

    #[test]
    fn aggregated_flow_ids_stable_and_distinct() {
        let (_, ft) = table(0);
        let a = ft.aggregated_flow_id(HostId(0), HostId(1), TrafficClass::Control);
        let b = ft.aggregated_flow_id(HostId(0), HostId(1), TrafficClass::Control);
        let c = ft.aggregated_flow_id(HostId(0), HostId(1), TrafficClass::BestEffort);
        let d = ft.aggregated_flow_id(HostId(1), HostId(0), TrafficClass::Control);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
        // Ids live inside the destination's aggregated band.
        let [(_, _), (agg_base, agg_count)] = ft.sink_bands(HostId(1));
        assert!(a.0 >= agg_base && a.0 < agg_base + agg_count);
        assert!(ft.n_flows() >= agg_base + agg_count);
    }

    #[test]
    fn control_stamps_at_link_speed() {
        let (_, mut ft) = table(0);
        let mut stamps = Vec::new();
        let now = SimTime::from_us(10);
        ft.stamp_aggregated(HostId(0), TrafficClass::Control, now, &[1000], &mut stamps);
        // 1000 bytes at 8 Gb/s = 1 us.
        assert_eq!(stamps[0].deadline, SimTime::from_us(11));
        assert!(stamps[0].eligible.is_none());
    }

    #[test]
    fn besteffort_weights_differ() {
        let (_, mut ft) = table(0);
        let (mut be, mut bg) = (Vec::new(), Vec::new());
        ft.stamp_aggregated(HostId(0), TrafficClass::BestEffort, SimTime::ZERO, &[8000], &mut be);
        ft.stamp_aggregated(HostId(0), TrafficClass::Background, SimTime::ZERO, &[8000], &mut bg);
        // Background's record bandwidth is half Best-effort's, so its
        // virtual clock advances twice as fast per byte.
        let be_d = be[0].deadline.as_ns();
        let bg_d = bg[0].deadline.as_ns();
        assert!((bg_d as f64 / be_d as f64 - 2.0).abs() < 0.01, "be {be_d} bg {bg_d}");
    }

    #[test]
    fn video_stamps_spread_over_target() {
        let (_, mut ft) = table(1);
        let parts = vec![2048u32; 5];
        let mut stamps = Vec::new();
        let lead = Some(SimDuration::from_us(20));
        ft.stamp_video(HostId(0), 0, SimTime::ZERO, &parts, lead, &mut stamps);
        assert_eq!(stamps.len(), 5);
        assert_eq!(stamps[4].deadline, SimTime::from_ms(10));
        assert_eq!(stamps[0].deadline, SimTime::from_ms(2));
        let e = stamps[0].eligible.unwrap();
        assert_eq!(stamps[0].deadline.as_ns() - e.as_ns(), 20_000);
    }

    #[test]
    fn failing_a_spine_reroutes_reserved_flows() {
        let (net, mut ft) = table(2);
        assert_eq!(ft.admission_fallbacks(), 0);
        let spine_links = net.switch_links(net.spine(0));
        let stats = ft.fail_links(&net, &spine_links);
        // Plenty of capacity at 400 KB/s per stream: everything refits.
        assert_eq!(stats.rejected, 0);
        assert!(stats.rerouted > 0, "some flow crossed spine 0");
        for h in 0..16u32 {
            ft.with_host(HostId(h), |hf| {
                for flow in &hf.video {
                    assert!(flow.reserved);
                    let route = net.route(HostId(h), flow.dst, flow.choice);
                    for l in net.links_on_route(&route) {
                        assert!(
                            ft.with_admission(|a| a.link_is_up(l)),
                            "reserved route on a dead link"
                        );
                    }
                    net.check_route(&route).unwrap();
                }
            });
        }
        assert!(ft.with_admission(|a| a.max_utilization()) <= 1.0);
        // Repair: nothing was rejected, so nothing to re-admit.
        let back = ft.restore_links(&net, &spine_links);
        assert_eq!(back, RerouteStats::default());
    }

    #[test]
    fn overloaded_failure_rejects_then_repair_readmits() {
        let net = FoldedClos::build(ClosParams::scaled(16));
        // Every host sends one 4 Gb/s stream to the opposite leaf: after
        // seven of eight spines die, the survivors cannot carry them all.
        let dsts: Vec<Vec<HostId>> = (0..16u32).map(|h| vec![HostId((h + 8) % 16)]).collect();
        let mut ft = FlowTable::new(
            &net,
            Architecture::Advanced2Vc,
            Bandwidth::gbps(8),
            &dsts,
            Bandwidth::gbps(4),
            DeadlineMode::FrameSpread { target: SimDuration::from_ms(10) },
            None,
            (0.5, 0.25),
        );
        assert_eq!(ft.admission_fallbacks(), 0);
        let mut dead = Vec::new();
        for spine in 1..8u16 {
            dead.extend(net.switch_links(net.spine(spine)));
        }
        let stats = ft.fail_links(&net, &dead);
        assert!(stats.rejected > 0, "one spine cannot carry 64 Gb/s");
        assert!(
            ft.with_admission(|a| a.max_utilization()) <= 1.0,
            "ledger never oversubscribes"
        );
        let count_unreserved = |ft: &FlowTable| {
            (0..16u32)
                .map(|h| {
                    ft.with_host(HostId(h), |hf| {
                        hf.video.iter().filter(|v| !v.reserved).count()
                    })
                })
                .sum::<usize>()
        };
        assert_eq!(count_unreserved(&ft) as u32, stats.rejected);
        // Rejected flows still have a valid (unregulated) route.
        for h in 0..16u32 {
            ft.with_host(HostId(h), |hf| {
                for flow in &hf.video {
                    let route = net.route(HostId(h), flow.dst, flow.choice);
                    net.check_route(&route).unwrap();
                }
            });
        }
        let back = ft.restore_links(&net, &dead);
        assert_eq!(back.readmitted, stats.rejected, "repair re-admits everyone");
        assert_eq!(count_unreserved(&ft), 0);
        assert!(ft.with_admission(|a| a.max_utilization()) <= 1.0);
    }

    #[test]
    fn aggregated_routes_move_off_failed_links() {
        let (net, mut ft) = table(0);
        // Kill whatever spine the (0, 9) route uses; every pair crossing
        // that spine must be re-assigned onto a survivor.
        let before = ft.aggregated_choice(HostId(0), HostId(9));
        let spine = net.spine(before);
        let stats = ft.fail_links(&net, &net.switch_links(spine));
        assert_eq!(stats.rerouted, 0, "no video flows to touch");
        assert_eq!(stats.rejected, 0);
        assert!(stats.invalidated > 0, "the (0, 9) route crossed the dead spine");
        let after = ft.aggregated_choice(HostId(0), HostId(9));
        assert_ne!(before, after, "route through the dead spine was moved");
        assert_eq!(
            ft.aggregated_path(HostId(0), HostId(9)),
            net.port_path(HostId(0), HostId(9), after)
        );
        // Every pair now avoids the dead spine.
        for src in 0..16u32 {
            for dst in 0..16u32 {
                if src == dst {
                    continue;
                }
                let c = ft.aggregated_choice(HostId(src), HostId(dst));
                for l in net.links_on_route(&net.route(HostId(src), HostId(dst), c)) {
                    assert!(ft.with_admission(|a| a.link_is_up(l)));
                }
            }
        }
    }

    #[test]
    fn traditional_stamps_nothing() {
        let net = FoldedClos::build(ClosParams::scaled(16));
        let dsts = vec![vec![]; 16];
        let mut ft = FlowTable::new(
            &net,
            Architecture::Traditional2Vc,
            Bandwidth::gbps(8),
            &dsts,
            Bandwidth::bytes_per_sec(400_000),
            DeadlineMode::FrameSpread { target: SimDuration::from_ms(10) },
            None,
            (0.5, 0.5),
        );
        let mut stamps = Vec::new();
        let now = SimTime::from_us(9);
        ft.stamp_aggregated(HostId(0), TrafficClass::Control, now, &[500], &mut stamps);
        assert_eq!(stamps[0].deadline, SimTime::ZERO);
        assert!(stamps[0].eligible.is_none());
    }
}
