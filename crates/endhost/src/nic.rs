//! Egress NIC model.

// tidy: hot-path

use crate::runs::ClassRuns;
use dqos_core::{Architecture, NicEvent, NodeAction, NodeModel, PktTok, Vc, NUM_VCS};
use dqos_queues::{FlatFifo, SchedQueue, SortedQueue};
use dqos_sim_core::{Bandwidth, SimTime};
use dqos_topology::Port;
use dqos_trace::ModelNote;

/// NIC parameters.
#[derive(Debug, Clone, Copy)]
pub struct NicConfig {
    /// Architecture (decides queue structures and whether eligible time
    /// exists).
    pub arch: Architecture,
    /// Injection link bandwidth.
    pub link_bw: Bandwidth,
    /// The switch's input buffer per VC (initial credit).
    pub peer_buffer_per_vc: u32,
}

/// Injection counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct NicStats {
    /// Packets put on the wire.
    pub injected_packets: u64,
    /// Bytes put on the wire.
    pub injected_bytes: u64,
    /// High-water mark of packets queued in the NIC (all queues).
    pub max_queued_packets: usize,
}

/// The host-side injection queues of both VCs: per-class deadline runs
/// for the EDF architectures ([`ClassRuns`]), FIFO (flat rings) for
/// Traditional.
#[derive(Debug)]
enum Ready {
    Edf(ClassRuns),
    Fifo([FlatFifo<PktTok>; NUM_VCS]),
    /// One stable deadline-sorted queue per VC: the order `Edf` must
    /// reproduce exactly (see the differential test below).
    #[cfg(test)]
    Reference([dqos_queues::DeadlineSortedQueue<PktTok>; NUM_VCS]),
}

impl Ready {
    fn new(arch: Architecture) -> Self {
        if arch.host_sorted_queues() {
            Ready::Edf(ClassRuns::new())
        } else {
            Ready::Fifo([FlatFifo::new(), FlatFifo::new()])
        }
    }
    /// Queue a ready token. Its eligible time is spent (the wire never
    /// carries it), so the queues keep it zeroed.
    fn enqueue(&mut self, mut p: PktTok) {
        p.eligible = SimTime::ZERO;
        match self {
            Ready::Edf(q) => q.enqueue(p),
            Ready::Fifo(q) => q[p.vc.idx()].enqueue(p),
            #[cfg(test)]
            Ready::Reference(q) => q[p.vc.idx()].enqueue(p),
        }
    }
    fn peek(&self, vc: Vc) -> Option<PktTok> {
        match self {
            Ready::Edf(q) => q.peek(vc),
            Ready::Fifo(q) => q[vc.idx()].peek().copied(),
            #[cfg(test)]
            Ready::Reference(q) => q[vc.idx()].peek().copied(),
        }
    }
    fn dequeue(&mut self, vc: Vc) -> Option<PktTok> {
        match self {
            Ready::Edf(q) => q.dequeue(vc),
            Ready::Fifo(q) => q[vc.idx()].dequeue(),
            #[cfg(test)]
            Ready::Reference(q) => q[vc.idx()].dequeue(),
        }
    }
    fn len(&self, vc: Vc) -> usize {
        match self {
            Ready::Edf(q) => q.len(vc),
            Ready::Fifo(q) => SchedQueue::len(&q[vc.idx()]),
            #[cfg(test)]
            Ready::Reference(q) => SchedQueue::len(&q[vc.idx()]),
        }
    }
}

/// The egress NIC state machine. All times are in the host's local clock
/// domain; the event loop translates.
#[derive(Debug)]
pub struct Nic {
    cfg: NicConfig,
    /// Packets not yet eligible, keyed by eligible time (EDF archs only).
    eligible_q: SortedQueue<PktTok>,
    /// Ready-to-inject queues of both VCs.
    ready: Ready,
    credits: [u32; NUM_VCS],
    tx_busy: bool,
    /// The earliest wake-up already requested (dedup of WakeAt actions).
    wake_at: Option<SimTime>,
    stats: NicStats,
    /// Flight-recorder hooks (off by default; see `dqos-trace`). Pacing
    /// promotions leave [`ModelNote`]s for the runtime to drain.
    tracing: bool,
    notes: Vec<ModelNote>,
}

impl Nic {
    /// Build a NIC.
    pub fn new(cfg: NicConfig) -> Self {
        Nic {
            cfg,
            eligible_q: SortedQueue::new(),
            ready: Ready::new(cfg.arch),
            credits: [cfg.peer_buffer_per_vc; NUM_VCS],
            tx_busy: false,
            wake_at: None,
            stats: NicStats::default(),
            tracing: false,
            notes: Vec::new(),
        }
    }

    /// Enable or disable flight-recorder notes. Tracing must never change
    /// behaviour: the only effect is appending to the note buffer.
    pub fn set_tracing(&mut self, on: bool) {
        self.tracing = on;
    }

    /// Swap the accumulated notes into `buf` (which should be empty).
    pub fn swap_notes(&mut self, buf: &mut Vec<ModelNote>) {
        std::mem::swap(&mut self.notes, buf);
    }

    /// Counters.
    pub fn stats(&self) -> NicStats {
        self.stats
    }

    /// Packets currently queued (all stages).
    pub fn queued_packets(&self) -> usize {
        self.eligible_q.len() + self.ready.len(Vc::REGULATED) + self.ready.len(Vc::BEST_EFFORT)
    }

    /// Remaining injection credit toward the leaf switch on `vc`
    /// (stall diagnostics: a stuck NIC with zero credit means the
    /// returning credit was lost or the switch buffer never drained).
    pub fn credits(&self, vc: Vc) -> u32 {
        self.credits[vc.idx()]
    }

    /// Hand a batch of freshly stamped packet tokens to the NIC at local
    /// time `now`. The whole message's worth of packets is sorted into
    /// the pacing/injection queues in one visit, then the link is pumped
    /// once — the NIC-side half of the simulator's batch pacing. Borrows
    /// the slice so the runtime can reuse its token scratch buffer.
    pub fn enqueue_batch(&mut self, toks: &[PktTok], now: SimTime, actions: &mut Vec<NodeAction>) {
        for &p in toks {
            // Eligible-time smoothing only exists in the EDF
            // architectures, and only delays packets still in the
            // future. (`eligible == ZERO` encodes "no eligible time" and
            // can never exceed `now`.)
            if self.cfg.arch.uses_deadlines() && p.eligible > now {
                self.eligible_q.insert(p.eligible, p);
            } else {
                self.ready.enqueue(p);
            }
        }
        self.stats.max_queued_packets = self.stats.max_queued_packets.max(self.queued_packets());
        self.pump(now, actions);
    }

    /// Timer callback: promote eligible packets, try to inject.
    pub fn on_wake(&mut self, now: SimTime, actions: &mut Vec<NodeAction>) {
        self.wake_at = None;
        self.pump(now, actions);
    }

    /// The injection link finished serialising.
    pub fn on_tx_done(&mut self, now: SimTime, actions: &mut Vec<NodeAction>) {
        self.tx_busy = false;
        self.pump(now, actions);
    }

    /// The switch returned credit.
    pub fn on_credit(&mut self, vc: Vc, bytes: u32, now: SimTime, actions: &mut Vec<NodeAction>) {
        self.credits[vc.idx()] += bytes;
        debug_assert!(self.credits[vc.idx()] <= self.cfg.peer_buffer_per_vc);
        self.pump(now, actions);
    }

    /// Promote, inject, and arrange the next wake-up.
    fn pump(&mut self, now: SimTime, actions: &mut Vec<NodeAction>) {
        // Promote every packet whose eligible time has come.
        while let Some(p) = self.eligible_q.pop_due(now) {
            if self.tracing {
                self.notes.push(ModelNote::Promoted { pkt: p.id });
            }
            self.ready.enqueue(p);
        }
        self.try_tx(now, actions);
        // Arrange a wake-up for the next eligible head, if it is not
        // already covered by a pending one.
        if let Some(head) = self.eligible_q.head_key() {
            let need = match self.wake_at {
                None => true,
                Some(w) => head < w,
            };
            if need {
                self.wake_at = Some(head);
                actions.push(NodeAction::WakeAt { at: head });
            }
        }
    }

    fn try_tx(&mut self, now: SimTime, actions: &mut Vec<NodeAction>) {
        if self.tx_busy {
            return;
        }
        // §3.2: best-effort is injected only when the regulated VC has no
        // packet ready to inject — packets awaiting eligibility do not
        // count, and neither does a credit-blocked head ("ready" means
        // transmittable: the VCs account separate downstream buffers, so
        // best-effort may use a link the regulated VC cannot).
        let mut chosen = None;
        for vc in Vc::ALL {
            match self.ready.peek(vc) {
                Some(head) if self.credits[vc.idx()] >= head.len => {
                    chosen = Some(vc);
                    break;
                }
                _ => {}
            }
        }
        let Some(vc) = chosen else { return };
        // tidy: allow(no-unwrap) -- vc was chosen above precisely because
        // its ready queue had a head packet; nothing ran in between.
        let tok = self.ready.dequeue(vc).expect("nonempty");
        let len = tok.len;
        self.credits[vc.idx()] -= len;
        self.tx_busy = true;
        self.stats.injected_packets += 1;
        self.stats.injected_bytes += len as u64;
        // The arena-resident packet's `injected_at` stamp is the
        // runtime's job (it owns the arena this token points into).
        let finish = now + self.cfg.link_bw.tx_time(len as u64);
        actions.push(NodeAction::StartTx { out_port: Port(0), tok, finish });
    }
}

impl NodeModel for Nic {
    type Event = NicEvent;
    type Effect = Vec<NodeAction>;

    fn on_event(&mut self, local: SimTime, ev: NicEvent) -> Vec<NodeAction> {
        let mut actions = Vec::new();
        match ev {
            NicEvent::Enqueue(toks) => self.enqueue_batch(&toks, local, &mut actions),
            NicEvent::Wake => self.on_wake(local, &mut actions),
            NicEvent::TxDone => self.on_tx_done(local, &mut actions),
            NicEvent::Credit { vc, bytes } => self.on_credit(vc, bytes, local, &mut actions),
        }
        actions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dqos_core::{TrafficClass, NUM_CLASSES};

    fn cfg(arch: Architecture) -> NicConfig {
        NicConfig { arch, link_bw: Bandwidth::gbps(8), peer_buffer_per_vc: 8192 }
    }

    fn pkt(id: u64, class: TrafficClass, len: u32, deadline: u64, eligible: Option<u64>) -> PktTok {
        PktTok {
            id,
            deadline: SimTime::from_ns(deadline),
            eligible: eligible.map_or(SimTime::ZERO, SimTime::from_ns),
            slot: id as u32,
            len,
            out: Port(1),
            hop: 0,
            vc: class.vc(),
            class,
        }
    }

    fn enq(nic: &mut Nic, toks: Vec<PktTok>, now: SimTime) -> Vec<NodeAction> {
        let mut acts = Vec::new();
        nic.enqueue_batch(&toks, now, &mut acts);
        acts
    }

    fn wake(nic: &mut Nic, now: SimTime) -> Vec<NodeAction> {
        let mut acts = Vec::new();
        nic.on_wake(now, &mut acts);
        acts
    }

    fn tx_done(nic: &mut Nic, now: SimTime) -> Vec<NodeAction> {
        let mut acts = Vec::new();
        nic.on_tx_done(now, &mut acts);
        acts
    }

    fn credit(nic: &mut Nic, vc: Vc, bytes: u32, now: SimTime) -> Vec<NodeAction> {
        let mut acts = Vec::new();
        nic.on_credit(vc, bytes, now, &mut acts);
        acts
    }

    fn tx_ids(actions: &[NodeAction]) -> Vec<u64> {
        actions
            .iter()
            .filter_map(|a| match a {
                NodeAction::StartTx { tok, .. } => Some(tok.id),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn injects_immediately_when_idle() {
        let mut nic = Nic::new(cfg(Architecture::Advanced2Vc));
        let acts = enq(&mut nic, vec![pkt(1, TrafficClass::Control, 512, 5000, None)], SimTime::ZERO);
        assert_eq!(tx_ids(&acts), vec![1]);
        assert_eq!(nic.stats().injected_packets, 1);
    }

    #[test]
    fn deadline_order_within_regulated_vc() {
        let mut nic = Nic::new(cfg(Architecture::Simple2Vc));
        // The whole batch lands in the sorted queue before the link is
        // scheduled, so injection is in pure deadline order.
        let a = enq(
            &mut nic,
            vec![
                pkt(1, TrafficClass::Control, 512, 9_000, None),
                pkt(2, TrafficClass::Control, 512, 7_000, None),
                pkt(3, TrafficClass::Control, 512, 8_000, None),
            ],
            SimTime::ZERO,
        );
        assert_eq!(tx_ids(&a), vec![2], "earliest deadline first");
        let b = tx_done(&mut nic, SimTime::from_ns(512));
        assert_eq!(tx_ids(&b), vec![3]);
        let c = tx_done(&mut nic, SimTime::from_ns(1024));
        assert_eq!(tx_ids(&c), vec![1]);
    }

    #[test]
    fn traditional_keeps_fifo_order() {
        let mut nic = Nic::new(cfg(Architecture::Traditional2Vc));
        let a = enq(
            &mut nic,
            vec![
                pkt(1, TrafficClass::Control, 512, 9_000, None),
                pkt(2, TrafficClass::Control, 512, 1_000, None),
            ],
            SimTime::ZERO,
        );
        assert_eq!(tx_ids(&a), vec![1]);
        let b = tx_done(&mut nic, SimTime::from_ns(512));
        // FIFO: packet 2 goes second despite its earlier deadline — a
        // sorted queue would have sent it first had packet 1 not already
        // been on the wire; here order is pure arrival order.
        assert_eq!(tx_ids(&b), vec![2]);
    }

    #[test]
    fn eligible_time_delays_injection() {
        let mut nic = Nic::new(cfg(Architecture::Advanced2Vc));
        let acts = enq(
            &mut nic,
            vec![pkt(1, TrafficClass::Multimedia, 2048, 50_000, Some(30_000))],
            SimTime::ZERO,
        );
        // Not injected yet; a wake-up at the eligible time is requested.
        assert!(tx_ids(&acts).is_empty());
        assert!(matches!(
            acts.as_slice(),
            [NodeAction::WakeAt { at }] if *at == SimTime::from_ns(30_000)
        ));
        let acts = wake(&mut nic, SimTime::from_ns(30_000));
        assert_eq!(tx_ids(&acts), vec![1]);
    }

    #[test]
    fn traditional_ignores_eligible_time() {
        let mut nic = Nic::new(cfg(Architecture::Traditional2Vc));
        let acts = enq(
            &mut nic,
            vec![pkt(1, TrafficClass::Multimedia, 2048, 50_000, Some(30_000))],
            SimTime::ZERO,
        );
        assert_eq!(tx_ids(&acts), vec![1], "no smoothing without deadlines");
    }

    #[test]
    fn best_effort_waits_for_regulated() {
        let mut nic = Nic::new(cfg(Architecture::Advanced2Vc));
        let acts = enq(
            &mut nic,
            vec![
                pkt(1, TrafficClass::BestEffort, 512, 9_000, None),
                pkt(2, TrafficClass::Control, 512, 5_000, None),
            ],
            SimTime::ZERO,
        );
        // Control (VC0) wins even though BE arrived first.
        assert_eq!(tx_ids(&acts), vec![2]);
        let acts = tx_done(&mut nic, SimTime::from_ns(512));
        assert_eq!(tx_ids(&acts), vec![1]);
    }

    #[test]
    fn best_effort_proceeds_when_regulated_credit_starved() {
        // A VC0 head without credits is not "ready to inject": VC1 may
        // use the link (its credits account a different buffer).
        let mut nic = Nic::new(cfg(Architecture::Advanced2Vc));
        nic.credits[0] = 0;
        let acts = enq(
            &mut nic,
            vec![
                pkt(1, TrafficClass::Control, 512, 5_000, None),
                pkt(2, TrafficClass::BestEffort, 512, 9_000, None),
            ],
            SimTime::ZERO,
        );
        assert_eq!(tx_ids(&acts), vec![2], "BE uses the link VC0 cannot");
        // VC0 credits arrive mid-flight; once the link frees, control goes.
        let acts = credit(&mut nic, Vc::REGULATED, 8192, SimTime::from_ns(100));
        assert!(tx_ids(&acts).is_empty(), "link still busy");
        let acts = tx_done(&mut nic, SimTime::from_ns(512));
        assert_eq!(tx_ids(&acts), vec![1]);
    }

    #[test]
    fn best_effort_flows_while_regulated_only_waits_eligibility() {
        // Packets waiting for eligible time do NOT block best-effort
        // (the paper's parenthetical).
        let mut nic = Nic::new(cfg(Architecture::Advanced2Vc));
        let acts = enq(
            &mut nic,
            vec![
                pkt(1, TrafficClass::Multimedia, 512, 100_000, Some(80_000)),
                pkt(2, TrafficClass::BestEffort, 512, 9_000, None),
            ],
            SimTime::ZERO,
        );
        assert_eq!(tx_ids(&acts), vec![2], "BE uses the idle link");
    }

    #[test]
    fn credit_gating() {
        let mut nic = Nic::new(NicConfig {
            arch: Architecture::Ideal,
            link_bw: Bandwidth::gbps(8),
            peer_buffer_per_vc: 600,
        });
        let acts = enq(
            &mut nic,
            vec![
                pkt(1, TrafficClass::Control, 512, 5_000, None),
                pkt(2, TrafficClass::Control, 512, 6_000, None),
            ],
            SimTime::ZERO,
        );
        assert_eq!(tx_ids(&acts), vec![1]);
        // 88 bytes of credit left: packet 2 stalls even when tx finishes.
        let acts = tx_done(&mut nic, SimTime::from_ns(512));
        assert!(tx_ids(&acts).is_empty());
        let acts = credit(&mut nic, Vc::REGULATED, 512, SimTime::from_ns(700));
        assert_eq!(tx_ids(&acts), vec![2]);
    }

    /// Drive random regulated packets through the NIC, serving the
    /// link to completion, and collect the injection order. Shared by the
    /// randomized port below and the gated proptest suite.
    fn injection_order(packets: Vec<(u32, u64)>) -> Vec<(u64, u64)> {
        // Effectively infinite credit: this property is about
        // ordering, not flow control.
        let mut nic = Nic::new(NicConfig {
            arch: Architecture::Ideal,
            link_bw: Bandwidth::gbps(8),
            peer_buffer_per_vc: u32::MAX / 2,
        });
        let batch: Vec<PktTok> = packets
            .iter()
            .enumerate()
            .map(|(i, &(len, deadline))| {
                pkt(i as u64, TrafficClass::Control, len.max(1), deadline, None)
            })
            .collect();
        let mut out = vec![];
        let mut now = 0u64;
        let mut acts = enq(&mut nic, batch, SimTime::ZERO);
        loop {
            let mut finished = None;
            for a in &acts {
                if let NodeAction::StartTx { tok, finish, .. } = a {
                    out.push((tok.id, tok.deadline.as_ns()));
                    finished = Some(finish.as_ns());
                }
            }
            match finished {
                Some(f) => {
                    now = now.max(f);
                    acts = tx_done(&mut nic, SimTime::from_ns(now));
                }
                None => break,
            }
        }
        out
    }

    /// Dependency-free port of the property: with every packet ready at
    /// t=0, the EDF NIC injects in non-decreasing deadline order, and
    /// injects everything.
    #[test]
    fn randomized_injection_is_deadline_sorted() {
        use dqos_sim_core::SimRng;
        let mut rng = SimRng::new(0x21C0);
        for _ in 0..100 {
            let packets: Vec<(u32, u64)> = (0..1 + rng.index(49))
                .map(|_| (1 + rng.index(4095) as u32, rng.range_u64(0, 999_999)))
                .collect();
            let n = packets.len();
            let order = injection_order(packets);
            assert_eq!(order.len(), n, "every packet injected");
            for w in order.windows(2) {
                assert!(w[0].1 <= w[1].1, "deadline order violated: {w:?}");
            }
        }
    }

    #[cfg(feature = "proptest")]
    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// With every packet ready at t=0, the EDF NIC injects in
            /// non-decreasing deadline order, and injects everything.
            #[test]
            fn prop_injection_is_deadline_sorted(
                packets in proptest::collection::vec((1u32..4096, 0u64..1_000_000), 1..50),
            ) {
                let n = packets.len();
                let order = injection_order(packets);
                prop_assert_eq!(order.len(), n, "every packet injected");
                for w in order.windows(2) {
                    prop_assert!(w[0].1 <= w[1].1, "deadline order violated: {:?}", w);
                }
            }
        }
    }

    /// A NIC whose ready queues are the reference deadline-sorted queues.
    fn reference_nic(cfg: NicConfig) -> Nic {
        use dqos_queues::DeadlineSortedQueue;
        let mut nic = Nic::new(cfg);
        nic.ready = Ready::Reference([DeadlineSortedQueue::new(), DeadlineSortedQueue::new()]);
        nic
    }

    /// What an action list says, in a comparable form.
    fn said(actions: &[NodeAction]) -> Vec<(Option<PktTok>, SimTime)> {
        actions
            .iter()
            .map(|a| match *a {
                NodeAction::StartTx { tok, finish, .. } => (Some(tok), finish),
                NodeAction::WakeAt { at } => (None, at),
                other => panic!("a NIC never emits {other:?}"),
            })
            .collect()
    }

    /// Differential test: seeded random interleavings of enqueue, wake,
    /// credit and tx-done over all four classes make the per-class-run
    /// NIC emit exactly the actions (every `StartTx` token and finish
    /// time, every wake-up) of a NIC on one deadline-sorted queue per
    /// VC. Deadlines sometimes step backwards within a class, so the
    /// fallback heap runs too.
    #[test]
    fn class_runs_inject_in_reference_order() {
        use crate::runs::BLOCK_ENTRIES;
        use dqos_sim_core::SimRng;
        let mut late_inserts = 0;
        let mut started = 0usize;
        let mut deepest = 0usize;
        for seed in 0..48u64 {
            let mut rng = SimRng::new(0x4E1C_0000 + seed);
            let arch = [Architecture::Ideal, Architecture::Simple2Vc, Architecture::Advanced2Vc]
                [seed as usize % 3];
            let peer = 4096 + 512 * rng.index(8) as u32;
            let cfg = NicConfig { arch, link_bw: Bandwidth::gbps(8), peer_buffer_per_vc: peer };
            let (mut nic, mut refn) = (Nic::new(cfg), reference_nic(cfg));
            let back_p = [0.0, 0.02, 0.2][seed as usize % 3];
            let mut now = 0u64;
            let mut clock = [0u64; NUM_CLASSES];
            let mut id = 0u64;
            let mut owed = [0u32; NUM_VCS];
            let mut tx_end: Option<u64> = None;
            for _ in 0..600 {
                now += rng.range_u64(0, 700);
                let t = SimTime::from_ns(now);
                let (mut a, mut b) = (Vec::new(), Vec::new());
                match rng.index(8) {
                    0..=3 => {
                        let batch: Vec<PktTok> = (0..1 + rng.index(6))
                            .map(|_| {
                                let class = TrafficClass::ALL[rng.index(NUM_CLASSES)];
                                let c = class.idx();
                                clock[c] = clock[c].max(now) + rng.range_u64(0, 3_000);
                                let deadline = if rng.chance(back_p) {
                                    clock[c].saturating_sub(rng.range_u64(1, 20_000))
                                } else {
                                    clock[c]
                                };
                                // Some regulated packets wait for eligibility.
                                let eligible = (class.is_regulated() && rng.chance(0.4))
                                    .then(|| now + rng.range_u64(0, 5_000));
                                id += 1;
                                let len = 64 * (1 + rng.index(32) as u32);
                                pkt(id, class, len, deadline, eligible)
                            })
                            .collect();
                        nic.enqueue_batch(&batch, t, &mut a);
                        refn.enqueue_batch(&batch, t, &mut b);
                    }
                    4 => {
                        nic.on_wake(t, &mut a);
                        refn.on_wake(t, &mut b);
                    }
                    5 | 6 => {
                        if tx_end.is_none_or(|e| e > now) {
                            continue;
                        }
                        tx_end = None;
                        nic.on_tx_done(t, &mut a);
                        refn.on_tx_done(t, &mut b);
                    }
                    _ => {
                        let vc = rng.index(NUM_VCS);
                        if owed[vc] == 0 {
                            continue;
                        }
                        let bytes = 1 + rng.range_u64(0, owed[vc] as u64 - 1) as u32;
                        owed[vc] -= bytes;
                        nic.on_credit(Vc::ALL[vc], bytes, t, &mut a);
                        refn.on_credit(Vc::ALL[vc], bytes, t, &mut b);
                    }
                }
                assert_eq!(said(&a), said(&b), "seed {seed}: actions diverged at t={now}");
                for act in &a {
                    if let NodeAction::StartTx { tok, finish, .. } = act {
                        owed[tok.vc.idx()] += tok.len;
                        tx_end = Some(finish.as_ns());
                        started += 1;
                    }
                }
                assert_eq!(nic.queued_packets(), refn.queued_packets());
            }
            if let Ready::Edf(runs) = &nic.ready {
                late_inserts += runs.late_inserts;
            }
            deepest = deepest.max(nic.stats().max_queued_packets);
        }
        assert!(started > 3_000, "the link must be busy enough to matter ({started})");
        assert!(deepest > 8 * BLOCK_ENTRIES, "backlogs must span many blocks ({deepest})");
        assert!(late_inserts > 100, "backward deadlines must reach the fallback ({late_inserts})");
    }

    #[test]
    fn wake_dedup() {
        let mut nic = Nic::new(cfg(Architecture::Advanced2Vc));
        let a = enq(
            &mut nic,
            vec![pkt(1, TrafficClass::Multimedia, 512, 60_000, Some(40_000))],
            SimTime::ZERO,
        );
        assert_eq!(a.len(), 1, "one wake for the head");
        // A later-eligible packet must not request an extra wake.
        let b = enq(
            &mut nic,
            vec![pkt(2, TrafficClass::Multimedia, 512, 90_000, Some(70_000))],
            SimTime::ZERO,
        );
        assert!(b.is_empty(), "covered by the pending wake");
        // An earlier-eligible packet must re-arm.
        let c = enq(
            &mut nic,
            vec![pkt(3, TrafficClass::Multimedia, 512, 30_000, Some(10_000))],
            SimTime::ZERO,
        );
        assert!(matches!(
            c.as_slice(),
            [NodeAction::WakeAt { at }] if *at == SimTime::from_ns(10_000)
        ));
    }
}
