//! The switch state machine.
//!
//! Driven by four handlers, each returning [`NodeAction`]s for the event
//! loop to schedule:
//!
//! * [`Switch::on_packet_arrival`] — a packet finished arriving on an
//!   input port (the upstream transmitter held a credit for it, so space
//!   is guaranteed).
//! * [`Switch::on_xbar_done`] — an internal crossbar transfer completed:
//!   the packet is now in the output buffer, the input-buffer space is
//!   returned upstream as a credit.
//! * [`Switch::on_tx_done`] — the output link finished serialising a
//!   packet and is free again.
//! * [`Switch::on_credit`] — the downstream node returned buffer credit.
//!
//! ## Input organisation
//!
//! Faithful to Fig. 1 and §3.2, each input port has **one queue
//! structure per VC** (FIFO / heap / ordered+take-over, by
//! architecture), and the arbiter only ever sees that structure's
//! *candidate* head: "the switches can just take into account the first
//! packet at each input buffer". A high-deadline candidate bound for a
//! blocked output therefore head-of-line-blocks the packets behind it —
//! exactly the *order error* the take-over queue attenuates.
//!
//! [`SwitchConfig::input_voq`] switches the input stage to per-output
//! VOQ banks instead (head-of-line blocking across outputs eliminated);
//! this is the `ablation_voq` configuration, not the paper's.
//!
//! Scheduling decisions happen in two places, re-evaluated whenever any
//! relevant resource frees: `try_xbar` (which input feeds an output's
//! buffer next — EDF over candidate heads or round-robin, VC0 first) and
//! `try_tx` (which VC's candidate the link serialises next — VC0
//! absolute priority, credit-gated on the candidate only, per the
//! paper's appendix note on flow control).
//!
//! ## Batch arbitration bookkeeping
//!
//! `try_xbar` used to rediscover candidates by scanning every input
//! queue's head on every call — O(ports × VCs) peeks, several times per
//! event. The switch now maintains per-(output, VC) **candidate
//! bitmasks** (`cand_mask`), updated at the only two points an input
//! queue mutates (arrival enqueue, grant dequeue), plus a mirror bitmask
//! of busy inputs. One arbitration pass is then a couple of word-ops and
//! a peek per *actual* candidate. The candidate sets — and therefore
//! every arbitration winner — are bit-identical to the scanning
//! implementation; only the cost of finding them changed.

// tidy: hot-path

use crate::arbiter::{pick_edf, pick_round_robin, Candidate};
use crate::config::SwitchConfig;
use dqos_core::{NodeAction, PktTok, Vc, NUM_VCS};
use dqos_queues::{AnyQueue, SchedQueue, Voq};
use dqos_sim_core::SimTime;
use dqos_topology::Port;
use dqos_trace::ModelNote;

/// Per-switch counters (diagnostics and tests).
#[derive(Debug, Clone, Copy, Default)]
pub struct SwitchStats {
    /// Packets forwarded out of the switch.
    pub forwarded_packets: u64,
    /// Bytes forwarded out of the switch.
    pub forwarded_bytes: u64,
    /// High-water mark of any (input, VC) buffer occupancy, bytes.
    pub max_input_occupancy: u64,
    /// High-water mark of any (output, VC) buffer occupancy, bytes.
    pub max_output_occupancy: u64,
    /// Order errors (§3.4): times a scheduler served a packet while a
    /// smaller deadline sat in the same buffer structure. Zero for the
    /// heap ("Ideal"); the take-over queue reduces it versus plain FIFO.
    /// Only counted for deadline architectures.
    pub order_errors: u64,
}

/// Occupancy / credit snapshot of one (port, VC) pair, taken by
/// [`Switch::diag`] for stall diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PortDiag {
    /// The port.
    pub port: Port,
    /// The virtual channel index.
    pub vc: u8,
    /// Bytes of downstream credit still available on (port, vc).
    pub credits: u32,
    /// Packets waiting in the input stage.
    pub input_queued: usize,
    /// Packets waiting in the output buffer.
    pub output_queued: usize,
}

struct OutputBuf {
    q: AnyQueue<PktTok>,
    /// Bytes reserved by an in-flight crossbar transfer (space is claimed
    /// when the transfer starts so two transfers cannot overcommit).
    reserved: u32,
}

/// One input port's buffer for one VC.
enum InputStage {
    /// The paper's organisation: one queue structure, candidate = its
    /// head.
    Single(AnyQueue<PktTok>),
    /// Per-output VOQ bank (ablation configuration).
    Voq(Voq<AnyQueue<PktTok>>),
}

impl InputStage {
    fn enqueue(&mut self, tok: PktTok) {
        match self {
            InputStage::Single(q) => q.enqueue(tok),
            InputStage::Voq(v) => {
                let out = tok.out.idx();
                v.enqueue(out, tok);
            }
        }
    }

    /// The candidate this input offers towards output `out`, if any.
    fn candidate_for(&self, out: usize) -> Option<&PktTok> {
        match self {
            InputStage::Single(q) => {
                let head = q.peek()?;
                (head.out.idx() == out).then_some(head)
            }
            InputStage::Voq(v) => v.peek(out),
        }
    }

    /// Remove the candidate previously seen via `candidate_for(out)`.
    fn dequeue_for(&mut self, out: usize) -> Option<PktTok> {
        match self {
            InputStage::Single(q) => {
                debug_assert_eq!(q.peek().map(|p| p.out.idx()), Some(out));
                q.dequeue()
            }
            InputStage::Voq(v) => v.dequeue(out),
        }
    }

    /// The true minimum deadline in the structure serving `out` (for the
    /// order-error count; see [`SchedQueue::min_deadline`]).
    fn min_deadline_for(&self, out: usize) -> Option<SimTime> {
        match self {
            InputStage::Single(q) => q.min_deadline(),
            InputStage::Voq(v) => v.queue(out).min_deadline(),
        }
    }

    fn bytes(&self) -> u64 {
        match self {
            InputStage::Single(q) => SchedQueue::bytes(q),
            InputStage::Voq(v) => v.bytes(),
        }
    }

    fn len(&self) -> usize {
        match self {
            InputStage::Single(q) => SchedQueue::len(q),
            InputStage::Voq(v) => v.total_len(),
        }
    }

    /// Outputs that may now have a candidate from this input (after the
    /// input's head changed): one for Single, all non-empty for Voq.
    fn candidate_outputs(&self, scratch: &mut Vec<usize>) {
        scratch.clear();
        match self {
            InputStage::Single(q) => {
                if let Some(head) = q.peek() {
                    scratch.push(head.out.idx());
                }
            }
            InputStage::Voq(v) => {
                for out in 0..v.n_outputs() {
                    if v.has_for(out) {
                        scratch.push(out);
                    }
                }
            }
        }
    }

    /// Flags for a crossbar grant from this stage toward `out`, read just
    /// before the dequeue: was the candidate served via the take-over
    /// queue, and does the structure serve in FIFO order? Feeds the
    /// flight recorder's wait classification.
    fn grant_flags(&self, out: usize) -> (bool, bool) {
        match self {
            InputStage::Single(q) => (q.candidate_is_take_over(), q.is_fifo()),
            InputStage::Voq(v) => {
                let q = v.queue(out);
                (q.candidate_is_take_over(), q.is_fifo())
            }
        }
    }

    fn take_over_total(&self) -> u64 {
        match self {
            InputStage::Single(q) => q.take_over_total(),
            InputStage::Voq(v) => {
                (0..v.n_outputs()).map(|o| v.queue(o).take_over_total()).sum()
            }
        }
    }
}

/// Sentinel for `head_out`: the input queue is empty.
const NO_OUT: u8 = u8::MAX;

/// Cached arbitration-relevant fields of a single-queue stage's head,
/// refreshed whenever the queue mutates. Lets `try_xbar` build its
/// candidate list without touching the queues at all.
#[derive(Debug, Clone, Copy, Default)]
struct HeadMeta {
    len: u32,
    deadline: SimTime,
}

/// One switch instance.
pub struct Switch {
    cfg: SwitchConfig,
    /// `inputs[port][vc]`.
    inputs: Vec<[InputStage; NUM_VCS]>,
    /// `outputs[port][vc]`.
    outputs: Vec<[OutputBuf; NUM_VCS]>,
    /// Bit `i` set ⇔ input `i` feeds an in-flight crossbar transfer (an
    /// input feeds at most one at a time).
    busy_mask: u64,
    /// `cand_mask[out][vc]` bit `i` set ⇔ input `i` currently offers a
    /// candidate head towards output `out` on `vc` (busy/space filters
    /// are applied at arbitration time, not here).
    cand_mask: Vec<[u64; NUM_VCS]>,
    /// `head_out[input][vc]`: which output the single-queue stage's head
    /// targets (`NO_OUT` when empty; unused by the VOQ stage). This is
    /// the back-pointer that keeps `cand_mask` incremental.
    head_out: Vec<[u8; NUM_VCS]>,
    /// `head_meta[input][vc]`: the head's length and deadline, valid iff
    /// `head_out[input][vc] != NO_OUT` (single-queue stage only).
    head_meta: Vec<[HeadMeta; NUM_VCS]>,
    /// An output accepts at most one crossbar transfer at a time.
    xbar_busy: Vec<bool>,
    /// The in-flight transfer into each output.
    xbar_pkt: Vec<Option<(usize, Vc, PktTok)>>,
    /// Output links currently serialising.
    tx_busy: Vec<bool>,
    /// `credits[port][vc]`: bytes we may still send downstream.
    credits: Vec<[u32; NUM_VCS]>,
    /// Round-robin pointers (Traditional), per (output, vc).
    rr_ptr: Vec<[usize; NUM_VCS]>,
    /// Scratch list reused by candidate_outputs (avoids per-event alloc).
    scratch: Vec<usize>,
    /// Scratch candidate list reused by `try_xbar` (avoids per-event
    /// alloc; taken/restored around the arbitration scan).
    cand_buf: Vec<Candidate>,
    stats: SwitchStats,
    /// Flight-recorder hooks (off by default; see `dqos-trace`). When on,
    /// scheduling decisions leave [`ModelNote`]s for the runtime to drain
    /// after each event — the switch itself never sees the global clock.
    tracing: bool,
    notes: Vec<ModelNote>,
}

impl Switch {
    /// Build a switch; downstream credit counters start at
    /// `cfg.buffer_per_vc` (the peer's input buffer size).
    pub fn new(cfg: SwitchConfig) -> Self {
        cfg.validate();
        let n = cfg.n_ports as usize;
        assert!(n <= 64, "candidate bitmasks hold at most 64 ports");
        let kind = cfg.arch.switch_queue();
        let make_input = || {
            let mk = || {
                if cfg.input_voq {
                    InputStage::Voq(Voq::new(n, || AnyQueue::for_kind(kind)))
                } else {
                    InputStage::Single(AnyQueue::for_kind(kind))
                }
            };
            [mk(), mk()]
        };
        let make_out = || {
            [
                OutputBuf { q: AnyQueue::for_kind(kind), reserved: 0 },
                OutputBuf { q: AnyQueue::for_kind(kind), reserved: 0 },
            ]
        };
        Switch {
            cfg,
            inputs: (0..n).map(|_| make_input()).collect(),
            outputs: (0..n).map(|_| make_out()).collect(),
            busy_mask: 0,
            cand_mask: vec![[0; NUM_VCS]; n],
            head_out: vec![[NO_OUT; NUM_VCS]; n],
            head_meta: vec![[HeadMeta::default(); NUM_VCS]; n],
            xbar_busy: vec![false; n],
            xbar_pkt: (0..n).map(|_| None).collect(),
            tx_busy: vec![false; n],
            credits: vec![[cfg.buffer_per_vc; NUM_VCS]; n],
            rr_ptr: vec![[0; NUM_VCS]; n],
            scratch: Vec::with_capacity(n),
            cand_buf: Vec::with_capacity(n),
            stats: SwitchStats::default(),
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
    /// The runtime drains them after every event it feeds the switch.
    pub fn swap_notes(&mut self, buf: &mut Vec<ModelNote>) {
        std::mem::swap(&mut self.notes, buf);
    }

    /// The configuration.
    pub fn config(&self) -> &SwitchConfig {
        &self.cfg
    }

    /// Counters.
    pub fn stats(&self) -> SwitchStats {
        self.stats
    }

    /// Override the initial credit toward one downstream (e.g. a host
    /// with a larger receive buffer).
    pub fn set_credits(&mut self, port: Port, vc: Vc, bytes: u32) {
        self.credits[port.idx()][vc.idx()] = bytes;
    }

    /// Total packets currently buffered (inputs + crossbar + outputs).
    pub fn occupancy_packets(&self) -> usize {
        let inputs: usize = self
            .inputs
            .iter()
            .flat_map(|vcs| vcs.iter())
            .map(|s| s.len())
            .sum();
        let outputs: usize = self
            .outputs
            .iter()
            .flat_map(|vcs| vcs.iter())
            .map(|o| SchedQueue::len(&o.q))
            .sum();
        let xbar: usize = self.xbar_pkt.iter().filter(|x| x.is_some()).count();
        inputs + outputs + xbar
    }

    /// Per-(port, VC) occupancy and credit snapshot for one switch —
    /// the stall watchdog prints these to show *where* packets are stuck
    /// and which downstream buffers ran out of credit.
    pub fn diag(&self) -> Vec<PortDiag> {
        (0..self.cfg.n_ports as usize)
            .flat_map(|p| {
                (0..NUM_VCS).map(move |vc| PortDiag {
                    port: Port(p as u8),
                    vc: vc as u8,
                    credits: self.credits[p][vc],
                    input_queued: self.inputs[p][vc].len(),
                    output_queued: SchedQueue::len(&self.outputs[p][vc].q),
                })
            })
            .collect()
    }

    /// Summed downstream credit across all ports for `vc` (occupancy
    /// sampler).
    pub fn credit_total(&self, vc: Vc) -> u32 {
        self.credits.iter().map(|c| c[vc.idx()]).sum()
    }

    /// Cumulative take-over-queue admissions across all buffers
    /// (Advanced 2 VCs diagnostics; 0 for other architectures).
    pub fn take_over_total(&self) -> u64 {
        let inputs: u64 = self
            .inputs
            .iter()
            .flat_map(|vcs| vcs.iter())
            .map(|s| s.take_over_total())
            .sum();
        let outputs: u64 = self
            .outputs
            .iter()
            .flat_map(|vcs| vcs.iter())
            .map(|o| o.q.take_over_total())
            .sum();
        inputs + outputs
    }

    // ------------------------------------------------------------------
    // Event handlers
    // ------------------------------------------------------------------

    /// A packet fully arrived on `in_port` at `now` (deadline already in
    /// this switch's clock domain and `tok.out` already resolved; the
    /// event loop did the TTD decode and the route lookup). Appends the
    /// resulting actions to `actions` — the runtime hands every handler
    /// one reusable buffer per event instead of allocating a fresh one.
    pub fn on_packet_arrival(
        &mut self,
        in_port: Port,
        tok: PktTok,
        now: SimTime,
        actions: &mut Vec<NodeAction>,
    ) {
        let vc = tok.vc;
        let out = tok.out.idx();
        let i = in_port.idx();
        debug_assert!(out < self.cfg.n_ports as usize, "route uses port beyond radix");
        let occupancy = self.inputs[i][vc.idx()].bytes() + tok.len as u64;
        debug_assert!(
            occupancy <= self.cfg.buffer_per_vc as u64,
            "credit flow control violated: input buffer overflow"
        );
        self.inputs[i][vc.idx()].enqueue(tok);
        self.stats.max_input_occupancy = self.stats.max_input_occupancy.max(occupancy);
        self.refresh_input(i, vc.idx(), out);
        // The arrival can only create a candidate where the (possibly
        // new) head points.
        self.retry_outputs_fed_by(i, now, actions);
    }

    /// The crossbar transfer into `out_port` completed.
    pub fn on_xbar_done(&mut self, out_port: Port, now: SimTime, actions: &mut Vec<NodeAction>) {
        let o = out_port.idx();
        // tidy: allow(no-unwrap) -- the slot was filled when this transfer
        // was scheduled; an empty slot means a duplicated completion event.
        let (i, vc, tok) = self.xbar_pkt[o].take().expect("xbar completion without transfer");
        if self.tracing {
            self.notes.push(ModelNote::XbarDone { pkt: tok.id });
        }
        let len = tok.len;
        let ob = &mut self.outputs[o][vc.idx()];
        ob.reserved -= len;
        ob.q.enqueue(tok);
        let occ = SchedQueue::bytes(&self.outputs[o][vc.idx()].q);
        self.stats.max_output_occupancy = self.stats.max_output_occupancy.max(occ);
        self.busy_mask &= !(1u64 << i);
        self.xbar_busy[o] = false;

        // Input-buffer space freed: upstream may refill it.
        actions.push(NodeAction::SendCredit { in_port: Port(i as u8), vc, bytes: len });
        // The output buffer gained a packet: maybe start serialising.
        self.try_tx(out_port, now, actions);
        // This output's crossbar slot freed: next transfer in.
        self.try_xbar(o, now, actions);
        // The input freed: wherever its candidate(s) point may now pull.
        self.retry_outputs_fed_by(i, now, actions);
    }

    /// The link on `out_port` finished serialising.
    pub fn on_tx_done(&mut self, out_port: Port, now: SimTime, actions: &mut Vec<NodeAction>) {
        self.tx_busy[out_port.idx()] = false;
        self.try_tx(out_port, now, actions);
    }

    /// Downstream returned `bytes` of credit for (`out_port`, `vc`).
    pub fn on_credit(
        &mut self,
        out_port: Port,
        vc: Vc,
        bytes: u32,
        now: SimTime,
        actions: &mut Vec<NodeAction>,
    ) {
        let c = &mut self.credits[out_port.idx()][vc.idx()];
        *c += bytes;
        self.try_tx(out_port, now, actions);
    }

    // ------------------------------------------------------------------
    // Scheduling
    // ------------------------------------------------------------------

    /// Re-derive one input's candidate bit(s) after its queue mutated.
    /// `touched_out` is the affected VOQ bank (enqueue: the packet's
    /// output; dequeue: the granted output); the single-queue stage
    /// ignores it and tracks its head via `head_out`.
    fn refresh_input(&mut self, i: usize, vc: usize, touched_out: usize) {
        match &self.inputs[i][vc] {
            InputStage::Single(q) => {
                let new = match q.peek() {
                    Some(h) => {
                        // The head may change without its target changing
                        // (heap reorder, dequeue exposing a same-output
                        // successor): the meta cache refreshes either way.
                        self.head_meta[i][vc] = HeadMeta { len: h.len, deadline: h.deadline };
                        h.out.idx() as u8
                    }
                    None => NO_OUT,
                };
                let old = self.head_out[i][vc];
                if new != old {
                    if old != NO_OUT {
                        self.cand_mask[old as usize][vc] &= !(1u64 << i);
                    }
                    if new != NO_OUT {
                        self.cand_mask[new as usize][vc] |= 1u64 << i;
                    }
                    self.head_out[i][vc] = new;
                }
            }
            InputStage::Voq(v) => {
                if v.has_for(touched_out) {
                    self.cand_mask[touched_out][vc] |= 1u64 << i;
                } else {
                    self.cand_mask[touched_out][vc] &= !(1u64 << i);
                }
            }
        }
    }

    fn retry_outputs_fed_by(&mut self, input: usize, now: SimTime, actions: &mut Vec<NodeAction>) {
        if self.busy_mask & (1u64 << input) != 0 {
            return;
        }
        if !self.cfg.input_voq {
            // Single-queue stage: the only candidate per VC is the head,
            // whose target the mask bookkeeping already knows.
            for vc in 0..NUM_VCS {
                let out = self.head_out[input][vc];
                if out != NO_OUT && !self.xbar_busy[out as usize] {
                    self.try_xbar(out as usize, now, actions);
                    if self.busy_mask & (1u64 << input) != 0 {
                        // This input just won a transfer; no further
                        // candidates from it this round.
                        return;
                    }
                }
            }
            return;
        }
        let mut outs = std::mem::take(&mut self.scratch);
        for vc in 0..NUM_VCS {
            self.inputs[input][vc].candidate_outputs(&mut outs);
            for k in 0..outs.len() {
                let out = outs[k];
                if !self.xbar_busy[out] {
                    self.try_xbar(out, now, actions);
                    if self.busy_mask & (1u64 << input) != 0 {
                        self.scratch = outs;
                        return;
                    }
                }
            }
        }
        self.scratch = outs;
    }

    /// Try to start a crossbar transfer into output `out`.
    fn try_xbar(&mut self, out: usize, now: SimTime, actions: &mut Vec<NodeAction>) {
        if self.xbar_busy[out] {
            return;
        }
        let avail = !self.busy_mask;
        if self.cand_mask[out].iter().all(|&m| m & avail == 0) {
            // No non-busy input offers anything towards this output —
            // the common case on the re-evaluation call sites.
            return;
        }
        let n = self.cfg.n_ports as usize;
        let voq = self.cfg.input_voq;
        // Reusable candidate scratch: `try_xbar` never re-enters itself
        // (its body calls no scheduler method), so taking the buffer for
        // the scan is safe.
        let mut cands = std::mem::take(&mut self.cand_buf);
        // VC0 has priority over VC1 among available candidates.
        for vc in dqos_core::Vc::ALL {
            let mask = self.cand_mask[out][vc.idx()] & avail;
            if mask == 0 {
                continue;
            }
            let free = self.output_free_space(out, vc);
            cands.clear();
            let mut m = mask;
            while m != 0 {
                let i = m.trailing_zeros() as usize;
                m &= m - 1;
                let (len, deadline) = if voq {
                    match self.inputs[i][vc.idx()].candidate_for(out) {
                        Some(head) => (head.len, head.deadline),
                        None => continue,
                    }
                } else {
                    let hm = self.head_meta[i][vc.idx()];
                    (hm.len, hm.deadline)
                };
                if len <= free {
                    cands.push(Candidate { input: i, deadline });
                }
            }
            let winner = if self.cfg.arch.edf_arbitration() {
                pick_edf(&cands)
            } else {
                pick_round_robin(&cands, n, &mut self.rr_ptr[out][vc.idx()])
            };
            if let Some(i) = winner {
                if self.cfg.arch.uses_deadlines() {
                    let chosen = self.inputs[i][vc.idx()]
                        .candidate_for(out)
                        // tidy: allow(no-unwrap) -- i won arbitration for
                        // `out`, so its head candidate is present.
                        .expect("winner has a head")
                        .deadline;
                    if self.inputs[i][vc.idx()].min_deadline_for(out).is_some_and(|m| chosen > m)
                    {
                        self.stats.order_errors += 1;
                    }
                }
                let grant_flags =
                    if self.tracing { Some(self.inputs[i][vc.idx()].grant_flags(out)) } else { None };
                // tidy: allow(no-unwrap) -- same invariant: the arbitration
                // winner's head for `out` is still queued.
                let tok = self.inputs[i][vc.idx()].dequeue_for(out).expect("winner has a head");
                self.refresh_input(i, vc.idx(), out);
                if let Some((take_over, fifo)) = grant_flags {
                    self.notes.push(ModelNote::XbarGrant {
                        pkt: tok.id,
                        vc: vc.idx() as u8,
                        take_over,
                        fifo,
                    });
                }
                let len = tok.len;
                self.busy_mask |= 1u64 << i;
                self.xbar_busy[out] = true;
                self.outputs[out][vc.idx()].reserved += len;
                self.xbar_pkt[out] = Some((i, vc, tok));
                let at = now + self.cfg.link_bw.tx_time(len as u64);
                actions.push(NodeAction::ScheduleXbarDone { out_port: Port(out as u8), at });
                self.cand_buf = cands;
                return;
            }
        }
        self.cand_buf = cands;
    }

    fn output_free_space(&self, out: usize, vc: Vc) -> u32 {
        let ob = &self.outputs[out][vc.idx()];
        let used = SchedQueue::bytes(&ob.q) as u32 + ob.reserved;
        self.cfg.buffer_per_vc.saturating_sub(used)
    }

    /// Try to start serialising on output `out_port`.
    ///
    /// VC0 has absolute priority; within a VC only the structure's
    /// candidate (minimum-deadline head) is checked against credits. If
    /// VC0's candidate is credit-blocked, VC1 may use the otherwise idle
    /// link (its credits account a different downstream buffer).
    fn try_tx(&mut self, out_port: Port, now: SimTime, actions: &mut Vec<NodeAction>) {
        let o = out_port.idx();
        if self.tx_busy[o] {
            return;
        }
        for vc in dqos_core::Vc::ALL {
            let Some(head) = self.outputs[o][vc.idx()].q.peek() else {
                continue;
            };
            let len = head.len;
            if self.credits[o][vc.idx()] < len {
                // Candidate credit-blocked; do not look deeper into this
                // VC (paper's rule), fall through to the next VC.
                continue;
            }
            if self.cfg.arch.uses_deadlines() {
                let q = &self.outputs[o][vc.idx()].q;
                // tidy: allow(no-unwrap) -- the VC scan peeked this queue's
                // head just above; nothing dequeued in between.
                let chosen = q.head_deadline().expect("peeked head");
                if q.min_deadline().is_some_and(|m| chosen > m) {
                    self.stats.order_errors += 1;
                }
            }
            // tidy: allow(no-unwrap) -- same peeked head: the queue cannot
            // have drained between the peek and this dequeue.
            let tok = self.outputs[o][vc.idx()].q.dequeue().expect("peeked head");
            self.credits[o][vc.idx()] -= len;
            self.tx_busy[o] = true;
            self.stats.forwarded_packets += 1;
            self.stats.forwarded_bytes += len as u64;
            // The hop advance (leaving this switch completes the packet's
            // current hop) happens in the runtime, which owns the
            // arena-resident route the next hop is read from.
            let finish = now + self.cfg.link_bw.tx_time(len as u64);
            actions.push(NodeAction::StartTx { out_port, tok, finish });
            // Output-buffer space freed: the crossbar may refill it.
            self.try_xbar(o, now, actions);
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dqos_core::{Architecture, TrafficClass};
    use dqos_sim_core::Bandwidth;
    use std::collections::BinaryHeap;

    fn cfg(arch: Architecture) -> SwitchConfig {
        SwitchConfig {
            arch,
            n_ports: 4,
            buffer_per_vc: 8192,
            link_bw: Bandwidth::gbps(8),
            input_voq: false,
        }
    }

    /// Token headed for the given output of the switch under test (the
    /// runtime resolves `out` from the arena-resident route; here it is
    /// supplied directly).
    fn pkt(id: u64, class: TrafficClass, out_port: u8, len: u32, deadline_ns: u64) -> PktTok {
        PktTok {
            id,
            deadline: SimTime::from_ns(deadline_ns),
            eligible: SimTime::ZERO,
            slot: id as u32,
            len,
            out: Port(out_port),
            hop: 0,
            vc: class.vc(),
            class,
        }
    }

    /// Mini event loop driving a single switch: collects transmitted
    /// packets in order with their start times.
    struct Harness {
        sw: Switch,
        // (time, seq, kind)
        events: BinaryHeap<std::cmp::Reverse<(u64, u64, HEv)>>,
        seq: u64,
        sent: Vec<(u64, PktTok)>,
        credits_returned: Vec<(Port, Vc, u32)>,
    }

    #[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
    enum HEv {
        XbarDone(u8),
        TxDone(u8),
    }

    impl Harness {
        fn new(arch: Architecture) -> Self {
            Self::with_config(cfg(arch))
        }

        fn with_config(c: SwitchConfig) -> Self {
            Harness {
                sw: Switch::new(c),
                events: BinaryHeap::new(),
                seq: 0,
                sent: vec![],
                credits_returned: vec![],
            }
        }

        fn apply(&mut self, now: u64, actions: Vec<NodeAction>) {
            for a in actions {
                match a {
                    NodeAction::ScheduleXbarDone { out_port, at } => {
                        self.seq += 1;
                        self.events.push(std::cmp::Reverse((at.as_ns(), self.seq, HEv::XbarDone(out_port.0))));
                    }
                    NodeAction::StartTx { out_port, tok, finish } => {
                        assert!(finish.as_ns() >= now);
                        self.sent.push((now, tok));
                        self.seq += 1;
                        self.events.push(std::cmp::Reverse((finish.as_ns(), self.seq, HEv::TxDone(out_port.0))));
                    }
                    NodeAction::SendCredit { in_port, vc, bytes } => {
                        self.credits_returned.push((in_port, vc, bytes));
                    }
                    NodeAction::WakeAt { .. } => unreachable!("switches don't sleep"),
                }
            }
        }

        fn inject(&mut self, now: u64, in_port: u8, p: PktTok) {
            let mut acts = Vec::new();
            self.sw.on_packet_arrival(Port(in_port), p, SimTime::from_ns(now), &mut acts);
            self.apply(now, acts);
        }

        fn run(&mut self) -> u64 {
            let mut last = 0;
            while let Some(std::cmp::Reverse((t, _, ev))) = self.events.pop() {
                last = t;
                let mut acts = Vec::new();
                match ev {
                    HEv::XbarDone(p) => self.sw.on_xbar_done(Port(p), SimTime::from_ns(t), &mut acts),
                    HEv::TxDone(p) => self.sw.on_tx_done(Port(p), SimTime::from_ns(t), &mut acts),
                }
                self.apply(t, acts);
            }
            last
        }
    }

    #[test]
    fn single_packet_traverses() {
        let mut h = Harness::new(Architecture::Advanced2Vc);
        h.inject(0, 0, pkt(1, TrafficClass::Control, 2, 1000, 5000));
        h.run();
        assert_eq!(h.sent.len(), 1);
        let (t, p) = &h.sent[0];
        // Crossbar transfer takes 1000 ns; tx starts right after.
        assert_eq!(*t, 1000);
        assert_eq!(p.id, 1);
        assert_eq!(p.hop, 0, "hop advance is the runtime's job now");
        // Credit for the input buffer returned once.
        assert_eq!(h.credits_returned, vec![(Port(0), Vc::REGULATED, 1000)]);
        assert_eq!(h.sw.stats().forwarded_packets, 1);
        assert_eq!(h.sw.occupancy_packets(), 0);
    }

    #[test]
    fn edf_orders_across_inputs() {
        // Occupy the crossbar with a blocker from input 2, then let two
        // inputs race for output 0 while it is busy. When the crossbar
        // frees, both candidates are present and the earlier deadline
        // must win under every EDF architecture — even though the
        // late-deadline packet arrived first.
        for arch in [Architecture::Ideal, Architecture::Simple2Vc, Architecture::Advanced2Vc] {
            let mut h = Harness::new(arch);
            h.inject(0, 2, pkt(0, TrafficClass::Control, 0, 500, 50_000));
            h.inject(10, 0, pkt(1, TrafficClass::Control, 0, 500, 900_000));
            h.inject(20, 1, pkt(2, TrafficClass::Control, 0, 500, 100_000));
            h.run();
            assert_eq!(h.sent.len(), 3);
            assert_eq!(h.sent[0].1.id, 0);
            assert_eq!(h.sent[1].1.id, 2, "{arch:?}: earliest deadline first");
            assert_eq!(h.sent[2].1.id, 1);
        }
    }

    #[test]
    fn traditional_round_robins_ignoring_deadlines() {
        let mut h = Harness::new(Architecture::Traditional2Vc);
        // Input 0 offers a late-deadline packet, input 1 an urgent one;
        // RR starts at input 0.
        h.inject(0, 0, pkt(1, TrafficClass::Control, 0, 500, 900_000));
        h.inject(0, 1, pkt(2, TrafficClass::Control, 0, 500, 100));
        h.run();
        assert_eq!(h.sent[0].1.id, 1, "round robin ignores deadlines");
    }

    #[test]
    fn vc0_has_priority_over_vc1() {
        let mut h = Harness::new(Architecture::Advanced2Vc);
        // A best-effort packet arrives first, a control packet second —
        // both on the same input, same output. Both must be delivered
        // exactly once; the control packet must not be delayed by more
        // than the BE packet already in service.
        h.inject(0, 0, pkt(1, TrafficClass::Background, 0, 2048, 10_000));
        h.inject(10, 1, pkt(2, TrafficClass::Control, 0, 256, 5_000));
        h.run();
        assert_eq!(h.sent.len(), 2);
        let ids: Vec<u64> = h.sent.iter().map(|(_, p)| p.id).collect();
        assert!(ids.contains(&1) && ids.contains(&2));
    }

    #[test]
    fn credit_blocking_stalls_link() {
        let mut h = Harness::new(Architecture::Simple2Vc);
        // Exhaust the downstream credit for VC0 on output 0.
        h.sw.set_credits(Port(0), Vc::REGULATED, 100);
        h.inject(0, 0, pkt(1, TrafficClass::Control, 0, 500, 1000));
        h.run();
        assert_eq!(h.sent.len(), 0, "no credits, no transmission");
        // Credits arrive: transmission resumes.
        let mut acts = Vec::new();
        h.sw.on_credit(Port(0), Vc::REGULATED, 8092, SimTime::from_us(100), &mut acts);
        h.apply(100_000, acts);
        h.run();
        assert_eq!(h.sent.len(), 1);
    }

    #[test]
    fn vc1_uses_link_when_vc0_credit_blocked() {
        let mut h = Harness::new(Architecture::Advanced2Vc);
        h.sw.set_credits(Port(0), Vc::REGULATED, 0);
        h.inject(0, 0, pkt(1, TrafficClass::Control, 0, 500, 1000));
        h.inject(0, 1, pkt(2, TrafficClass::BestEffort, 0, 500, 2000));
        h.run();
        assert_eq!(h.sent.len(), 1);
        assert_eq!(h.sent[0].1.id, 2, "BE may use the link VC0 cannot");
    }

    #[test]
    fn single_queue_input_has_hol_blocking() {
        // Paper organisation: output 0 is credit-blocked; a packet for
        // output 1 behind the blocked head on the same input must WAIT
        // (head-of-line blocking) — it only flows once output 0 unblocks.
        let mut h = Harness::new(Architecture::Simple2Vc);
        h.sw.set_credits(Port(0), Vc::REGULATED, 0);
        h.inject(0, 0, pkt(1, TrafficClass::Control, 0, 500, 1000));
        h.inject(0, 0, pkt(2, TrafficClass::Control, 1, 500, 2000));
        h.run();
        // Packet 1 crossed the crossbar into output 0's buffer (space
        // available) and got stuck at the link; packet 2 then became the
        // input head and crossed to output 1 and out.
        assert_eq!(h.sent.len(), 1);
        assert_eq!(h.sent[0].1.id, 2);
        // Now block output 0's *buffer* instead: fill it so the head
        // cannot even cross the crossbar.
        let mut h = Harness::new(Architecture::Simple2Vc);
        h.sw.set_credits(Port(0), Vc::REGULATED, 0);
        // Four 2 KiB packets fill output 0's 8 KiB buffer.
        for i in 0..4 {
            h.inject(i * 10, 3, pkt(10 + i, TrafficClass::Control, 0, 2048, 1000 + i));
        }
        h.run();
        // Input 0: head to output 0 (buffer full -> stuck), then one to
        // output 1 behind it.
        h.inject(1000, 0, pkt(1, TrafficClass::Control, 0, 500, 1_000_000));
        h.inject(1010, 0, pkt(2, TrafficClass::Control, 1, 500, 1_000_001));
        h.run();
        let sent_ids: Vec<u64> = h.sent.iter().map(|(_, p)| p.id).collect();
        assert!(!sent_ids.contains(&2), "HoL: packet 2 stuck behind blocked head");
    }

    #[test]
    fn voq_input_avoids_hol_blocking() {
        // Ablation organisation: same scenario, but with per-output VOQ
        // the packet for output 1 flows immediately.
        let mut c = cfg(Architecture::Simple2Vc);
        c.input_voq = true;
        let mut h = Harness::with_config(c);
        h.sw.set_credits(Port(0), Vc::REGULATED, 0);
        for i in 0..4 {
            h.inject(i * 10, 3, pkt(10 + i, TrafficClass::Control, 0, 2048, 1000 + i));
        }
        h.run();
        h.inject(1000, 0, pkt(1, TrafficClass::Control, 0, 500, 1_000_000));
        h.inject(1010, 0, pkt(2, TrafficClass::Control, 1, 500, 1_000_001));
        h.run();
        let sent_ids: Vec<u64> = h.sent.iter().map(|(_, p)| p.id).collect();
        assert!(sent_ids.contains(&2), "VOQ: packet 2 bypasses the blocked head");
    }

    #[test]
    fn take_over_lets_urgent_packet_pass_blocked_head() {
        // The §3.4 mechanism at the input buffer: a high-deadline head
        // bound for a blocked output would delay an urgent packet behind
        // it under Simple; under Advanced the urgent packet goes to the
        // take-over queue... no — lower deadline goes to take-over only
        // if it arrives after a higher-deadline tail. Construct exactly
        // that: first a high-deadline packet (to blocked output 0), then
        // an urgent one to output 1.
        let build = |arch| {
            let mut h = Harness::new(arch);
            h.sw.set_credits(Port(0), Vc::REGULATED, 0);
            for i in 0..4 {
                h.inject(i * 10, 3, pkt(10 + i, TrafficClass::Control, 0, 2048, 100 + i));
            }
            h.run();
            // Head: deadline 1_000_000 to blocked output 0. Then urgent
            // deadline 5_000 to output 1 -> take-over queue (Advanced).
            h.inject(1000, 0, pkt(1, TrafficClass::Control, 0, 500, 1_000_000));
            h.inject(1010, 0, pkt(2, TrafficClass::Control, 1, 500, 5_000));
            h.run();
            h.sent.iter().map(|(_, p)| p.id).collect::<Vec<_>>()
        };
        let simple = build(Architecture::Simple2Vc);
        assert!(!simple.contains(&2), "Simple: urgent packet stuck (order error)");
        let advanced = build(Architecture::Advanced2Vc);
        assert!(advanced.contains(&2), "Advanced: take-over queue frees the urgent packet");
    }

    #[test]
    fn conservation_under_load() {
        // Throw a few hundred packets at all ports; every one must leave
        // exactly once, per VC accounting must hold. The harness has no
        // upstream credit model, so give the switch deep buffers — this
        // test checks conservation, not flow control.
        for arch in Architecture::ALL {
            for voq in [false, true] {
                let mut big = cfg(arch);
                big.buffer_per_vc = 1 << 20;
                big.input_voq = voq;
                let mut h = Harness::with_config(big);
                let mut id = 0;
                for round in 0..50u64 {
                    for inp in 0..4u8 {
                        id += 1;
                        let class = match id % 4 {
                            0 => TrafficClass::Control,
                            1 => TrafficClass::Multimedia,
                            2 => TrafficClass::BestEffort,
                            _ => TrafficClass::Background,
                        };
                        let out = (id % 4) as u8;
                        h.inject(round * 10, inp, pkt(id, class, out, 512, 1000 + id * 64));
                    }
                }
                h.run();
                assert_eq!(h.sent.len(), 200, "{arch:?} voq={voq}: all packets forwarded");
                assert_eq!(h.sw.occupancy_packets(), 0, "{arch:?} voq={voq}: switch drained");
                assert_eq!(h.credits_returned.len(), 200);
                let mut ids: Vec<u64> = h.sent.iter().map(|(_, p)| p.id).collect();
                ids.sort();
                ids.dedup();
                assert_eq!(ids.len(), 200, "{arch:?} voq={voq}: no duplicates");
            }
        }
    }

    #[test]
    fn per_flow_order_preserved_through_switch() {
        // Packets of one flow (same input, same output, increasing
        // deadlines) must depart in order for every architecture —
        // Theorem 3 end-to-end at switch scope.
        for arch in Architecture::ALL {
            let mut h = Harness::new(arch);
            // One flow = consecutive ids with strictly increasing
            // deadlines (the appendix hypotheses).
            for i in 0..20u64 {
                h.inject(i * 50, 0, pkt(i, TrafficClass::Multimedia, 0, 256, 1000 + i * 500));
            }
            h.run();
            let ids: Vec<u64> = h.sent.iter().map(|(_, p)| p.id).collect();
            let mut sorted = ids.clone();
            sorted.sort();
            assert_eq!(ids, sorted, "{arch:?}: flow reordered");
        }
    }

    #[test]
    fn take_over_counts_only_for_advanced() {
        let mut h = Harness::new(Architecture::Advanced2Vc);
        // Make the output queue hold a high-deadline packet, then a lower
        // one arrives -> take-over. Block tx with zero credits so packets
        // accumulate in the output buffer.
        h.sw.set_credits(Port(0), Vc::REGULATED, 0);
        h.inject(0, 0, pkt(1, TrafficClass::Control, 0, 256, 1_000_000));
        h.run();
        h.inject(10_000, 1, pkt(2, TrafficClass::Control, 0, 256, 500));
        h.run();
        assert!(h.sw.take_over_total() >= 1, "low-deadline late arrival recorded");

        let mut h2 = Harness::new(Architecture::Simple2Vc);
        h2.inject(0, 0, pkt(1, TrafficClass::Control, 0, 256, 1_000_000));
        h2.inject(0, 1, pkt(2, TrafficClass::Control, 0, 256, 500));
        h2.run();
        assert_eq!(h2.sw.take_over_total(), 0);
    }
}
