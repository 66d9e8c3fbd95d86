//! Per-layer micro-timings: each function times calls into one layer's
//! public API on an op mix parameterised by a real run, and returns host
//! nanoseconds (or µs / ms where named) per operation.
//!
//! Every function takes a `slice_s` budget: it repeats its batch until
//! that many host seconds have passed and reports the median batch.
//! Drivers that need an event order (switch, NIC) keep it in a binary
//! heap; the heap's own cost is measured separately at the same size and
//! subtracted, so the figure is the model's cost alone.

use crate::host::{median, ns_per_item};
use dqos_core::{
    AdmissionController, Architecture, DeadlineMode, FlowId, MsgTag, NodeAction, Packet, PktTok,
    Stamper, TrafficClass,
};
use dqos_endhost::{Nic, NicConfig, Sink};
use dqos_queues::{FlatFifo, FlatTwoQueue, SchedQueue};
use dqos_sim_core::{Bandwidth, EventQueue, SimDuration, SimRng, SimTime, SpscRing};
use dqos_stats::LogHistogram;
use dqos_switch::{Switch, SwitchConfig};
use dqos_topology::{ClosParams, FoldedClos, HostId, Port, PortPath, Route};
use dqos_traffic::{build_host_sources, MixConfig};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// Operations per calendar hold batch.
const HOLD_OPS: usize = 100_000;

/// Calendar payload: stands in for the runtime's `(node, message)`
/// event payload (a node index plus a 40-byte message).
type Payload = (u32, [u64; 5]);

/// `sim-core::queue`: ns per schedule+pop pair of a two-class hold
/// model. `near` pending events (packets in flight, host timers) are
/// rescheduled `1..=near_gap_ns` ahead; `far` pending events (video
/// frame generators) `1..=far_gap_ns` ahead. Keys are `(node << 40) |
/// seq`, as the runtime keys its events.
pub fn calendar_hold(
    near: usize,
    far: usize,
    near_gap_ns: u64,
    far_gap_ns: u64,
    slice_s: f64,
) -> f64 {
    let near = near.max(1);
    let mut rng = SimRng::new(0x686f_6c64);
    let short: Vec<u64> = (0..HOLD_OPS)
        .map(|_| rng.range_u64(1, near_gap_ns.max(2)))
        .collect();
    let long: Vec<u64> = (0..1_024)
        .map(|_| rng.range_u64(1, far_gap_ns.max(2)))
        .collect();
    let start = Instant::now();
    let mut per_op = Vec::new();
    while per_op.len() < 3 || start.elapsed().as_secs_f64() < slice_s {
        let mut q: EventQueue<Payload> = EventQueue::with_capacity((near + far) * 2);
        let mut seq = 0u64;
        for i in 0..near + far {
            let node = (i % 4096) as u64;
            seq += 1;
            // Payload word 0 marks the event's class (1 = far).
            let (at, class) = if i < near {
                (short[i % HOLD_OPS], 0)
            } else {
                (long[i % long.len()], 1)
            };
            q.schedule_keyed(
                SimTime::from_ns(at),
                (node << 40) | seq,
                (node as u32, [class, seq, 0, 0, 0]),
            );
        }
        let t = Instant::now();
        for (i, &g) in short.iter().enumerate() {
            let e = q.pop().expect("hold model keeps the calendar non-empty");
            seq += 1;
            let key = ((e.payload.0 as u64) << 40) | seq;
            let gap = if e.payload.1[0] == 1 {
                long[i % long.len()]
            } else {
                g
            };
            q.schedule_keyed(e.time + SimDuration::from_ns(gap), key, e.payload);
        }
        per_op.push(t.elapsed().as_nanos() as f64 / HOLD_OPS as f64);
        black_box(q.len());
    }
    median(&per_op)
}

/// `sim-core::ring`: ns per 4-word record (`[at, key, node, msg]`)
/// pushed and popped on one thread.
pub fn ring_record(slice_s: f64) -> f64 {
    let ring = SpscRing::new(1 << 13);
    let mut buf = Vec::with_capacity(8);
    ns_per_item(slice_s, 3, || {
        let mut sum = 0u64;
        for i in 0..100_000u64 {
            let pushed = ring.push(&[i, i << 40, i & 63, i ^ 7]);
            debug_assert!(pushed);
            if ring.pop(&mut buf) {
                sum = sum.wrapping_add(buf[0]);
            }
        }
        black_box(sum);
        100_000
    })
}

/// A switch-arrival-like deadline stream: per-flow virtual clocks rise,
/// and a share `late` of packets carries a deadline below its
/// predecessors' (what sends a packet to the take-over queue).
fn token_stream(n: usize, late: f64, seed: u64) -> Vec<PktTok> {
    let mut rng = SimRng::new(seed);
    let mut clock = 0u64;
    (0..n)
        .map(|i| {
            clock += rng.range_u64(1, 2_000);
            let d = if rng.chance(late) {
                clock.saturating_sub(rng.range_u64(1, 10_000))
            } else {
                clock
            };
            token(
                i as u64,
                d,
                2048,
                Port((i % 16) as u8),
                TrafficClass::Multimedia,
            )
        })
        .collect()
}

fn token(id: u64, deadline: u64, len: u32, out: Port, class: TrafficClass) -> PktTok {
    PktTok {
        id,
        deadline: SimTime::from_ns(deadline),
        eligible: SimTime::ZERO,
        slot: id as u32,
        len,
        out,
        hop: 0,
        vc: class.vc(),
        class,
    }
}

fn queue_churn<Q: SchedQueue<PktTok>>(
    mut make: impl FnMut() -> Q,
    occupancy: usize,
    late: f64,
    slice_s: f64,
) -> f64 {
    let stream = token_stream(65_536, late, 0x7175_6575);
    ns_per_item(slice_s, 3, || {
        let mut q = make();
        let mut out = 0u64;
        for (i, t) in stream.iter().enumerate() {
            q.enqueue(*t);
            if i >= occupancy {
                out = out.wrapping_add(q.dequeue().map(|p| p.id).unwrap_or(0));
            }
        }
        while let Some(p) = q.dequeue() {
            out = out.wrapping_add(p.id);
        }
        black_box(out);
        stream.len() as u64
    })
}

/// `queues::flat::FlatTwoQueue`: ns per enqueue+dequeue at `occupancy`
/// queued packets with a `late` share of out-of-order deadlines.
pub fn two_queue_op(occupancy: usize, late: f64, slice_s: f64) -> f64 {
    queue_churn(FlatTwoQueue::new, occupancy.max(1), late, slice_s)
}

/// `queues::flat::FlatFifo`: ns per enqueue+dequeue at `occupancy`.
pub fn fifo_op(occupancy: usize, slice_s: f64) -> f64 {
    queue_churn(FlatFifo::new, occupancy.max(1), 0.0, slice_s)
}

/// A minimal time-ordered event heap for the standalone model drivers.
struct Driver<E: Ord + Copy> {
    heap: BinaryHeap<Reverse<(u64, u64, E)>>,
    seq: u64,
    pushes: u64,
}

impl<E: Ord + Copy> Driver<E> {
    fn new() -> Self {
        Driver {
            heap: BinaryHeap::with_capacity(256),
            seq: 0,
            pushes: 0,
        }
    }
    fn at(&mut self, t: u64, e: E) {
        self.seq += 1;
        self.pushes += 1;
        self.heap.push(Reverse((t, self.seq, e)));
    }
    fn next(&mut self) -> Option<(u64, E)> {
        self.heap.pop().map(|Reverse((t, _, e))| (t, e))
    }
}

/// ns per push+pop of the drivers' event heap at `size` pending events:
/// the overhead the model timings subtract.
fn driver_heap_ns(size: usize) -> f64 {
    let mut rng = SimRng::new(0x6865_6170);
    let gaps: Vec<u64> = (0..50_000).map(|_| rng.range_u64(1, 4_096)).collect();
    let mut per = Vec::new();
    for _ in 0..5 {
        let mut d: Driver<u8> = Driver::new();
        for (i, g) in gaps.iter().take(size.max(1)).enumerate() {
            d.at(*g, (i % 7) as u8);
        }
        let t = Instant::now();
        for &g in &gaps {
            let (now, e) = d.next().expect("non-empty");
            d.at(now + g, e);
        }
        per.push(t.elapsed().as_nanos() as f64 / gaps.len() as f64);
        black_box(d.heap.len());
    }
    median(&per)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum SwEv {
    Arrive(u8),
    XbarDone(u8),
    TxDone(u8),
    Credit(u8, u8, u32),
}

/// Packets per standalone-switch batch.
const SWITCH_PACKETS: u64 = 20_000;

/// One standalone-switch batch: `SWITCH_PACKETS` packets arrive on the
/// paper's 16-port switch at 80 % of line rate per input, to uniformly
/// drawn outputs, under credit flow control both ways. Returns
/// `(host ns, packets forwarded, heap pushes)`.
fn switch_batch(arch: Architecture, late: f64, seed: u64) -> (f64, u64, u64) {
    let cfg = SwitchConfig::paper(arch);
    let ports = cfg.n_ports as usize;
    let mut sw = Switch::new(cfg);
    for p in 0..ports {
        for vc in dqos_core::Vc::ALL {
            sw.set_credits(Port(p as u8), vc, cfg.buffer_per_vc);
        }
    }
    let mut rng = SimRng::new(seed);
    let pkts: Vec<(u8, PktTok)> = {
        let mut clock = vec![0u64; ports];
        (0..SWITCH_PACKETS)
            .map(|id| {
                let i = rng.index(ports);
                let mut o = rng.index(ports - 1);
                if o >= i {
                    o += 1;
                }
                let class = TrafficClass::ALL[rng.index(4)];
                let len = 256 + 64 * rng.range_u64(0, 28) as u32;
                clock[i] += rng.range_u64(1, 4_000);
                let d = if rng.chance(late) {
                    clock[i].saturating_sub(rng.range_u64(1, 20_000))
                } else {
                    clock[i]
                };
                (i as u8, token(id, d, len, Port(o as u8), class))
            })
            .collect()
    };
    // Per-input arrival queues (the upstream link's backlog) and the
    // upstream view of each (input, VC) buffer's free space.
    let mut backlog: Vec<std::collections::VecDeque<PktTok>> = vec![Default::default(); ports];
    for (i, t) in &pkts {
        backlog[*i as usize].push_back(*t);
    }
    let mut credit_in = vec![[cfg.buffer_per_vc; 2]; ports];
    let mut link_free = vec![0u64; ports];
    let mut waiting = vec![false; ports];
    let mut d: Driver<SwEv> = Driver::new();
    for i in 0..ports {
        d.at(0, SwEv::Arrive(i as u8));
    }
    let mut actions: Vec<NodeAction> = Vec::with_capacity(64);
    let mut forwarded = 0u64;
    let t0 = Instant::now();
    while let Some((now, ev)) = d.next() {
        let at = SimTime::from_ns(now);
        match ev {
            SwEv::Arrive(i) => {
                let iu = i as usize;
                let Some(tok) = backlog[iu].front().copied() else {
                    continue;
                };
                let vc = tok.vc.idx();
                if credit_in[iu][vc] < tok.len {
                    waiting[iu] = true;
                    continue;
                }
                backlog[iu].pop_front();
                credit_in[iu][vc] -= tok.len;
                // 80 % of line rate: the next packet lands 1.25 wire
                // times later (8 Gb/s is one byte per ns).
                link_free[iu] = now + (tok.len as u64 * 5) / 4;
                sw.on_packet_arrival(Port(i), tok, at, &mut actions);
                if !backlog[iu].is_empty() {
                    d.at(link_free[iu], SwEv::Arrive(i));
                }
            }
            SwEv::XbarDone(o) => sw.on_xbar_done(Port(o), at, &mut actions),
            SwEv::TxDone(o) => sw.on_tx_done(Port(o), at, &mut actions),
            SwEv::Credit(o, vc, bytes) => sw.on_credit(
                Port(o),
                dqos_core::Vc::ALL[vc as usize],
                bytes,
                at,
                &mut actions,
            ),
        }
        for a in actions.drain(..) {
            match a {
                NodeAction::StartTx {
                    out_port,
                    tok,
                    finish,
                } => {
                    forwarded += 1;
                    d.at(finish.as_ns(), SwEv::TxDone(out_port.0));
                    d.at(
                        finish.as_ns() + 32,
                        SwEv::Credit(out_port.0, tok.vc.idx() as u8, tok.len),
                    );
                }
                NodeAction::SendCredit { in_port, vc, bytes } => {
                    let iu = in_port.idx();
                    credit_in[iu][vc.idx()] += bytes;
                    if waiting[iu] {
                        waiting[iu] = false;
                        d.at(now.max(link_free[iu]), SwEv::Arrive(in_port.0));
                    }
                }
                NodeAction::ScheduleXbarDone { out_port, at } => {
                    d.at(at.as_ns(), SwEv::XbarDone(out_port.0))
                }
                NodeAction::WakeAt { .. } => {}
            }
        }
    }
    let ns = t0.elapsed().as_nanos() as f64;
    (ns, forwarded, d.pushes)
}

/// `switch`: ns per packet through a standalone [`Switch`]
/// (arrival → crossbar → transmit → credit), driver heap subtracted.
/// Panics if a packet is lost (the driver drains every batch).
pub fn switch_packet(arch: Architecture, late: f64, slice_s: f64) -> f64 {
    // About three pending events per port: arrival, crossbar, transmit.
    let heap_ns = driver_heap_ns(3 * 16);
    let start = Instant::now();
    let mut per = Vec::new();
    let mut seed = 1u64;
    while per.len() < 3 || start.elapsed().as_secs_f64() < slice_s {
        let (ns, fwd, pushes) = switch_batch(arch, late, seed);
        assert_eq!(fwd, SWITCH_PACKETS, "the standalone switch lost packets");
        per.push(((ns - pushes as f64 * heap_ns) / fwd as f64).max(0.0));
        seed += 1;
    }
    median(&per)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum NicEv {
    Message(u32),
    Wake,
    TxDone,
    Credit(u8, u32),
}

/// Build one host's message stream: Table-1 class mix at 90 % load,
/// stamped as the simulator stamps (video frame-spread with a 20 µs
/// eligible lead, control at full link rate, best-effort classes at
/// their weights). Returns `(arrival ns, tokens)` per message.
fn nic_messages(arch: Architecture, n_msgs: usize, seed: u64) -> Vec<(u64, Vec<PktTok>)> {
    let link = Bandwidth::gbps(8);
    let mut rng = SimRng::new(seed);
    let mut stampers = [
        Stamper::new(DeadlineMode::FullLink(link)),
        Stamper::with_eligible(
            DeadlineMode::FrameSpread {
                target: SimDuration::from_ms(10),
            },
            SimDuration::from_us(20),
        ),
        Stamper::new(DeadlineMode::AvgBandwidth(link.scaled(1.0 / 3.0))),
        Stamper::new(DeadlineMode::AvgBandwidth(link.scaled(1.0 / 6.0))),
    ];
    let mut t = 0u64;
    let mut id = 0u64;
    (0..n_msgs)
        .map(|_| {
            let c = rng.index(4);
            let class = TrafficClass::ALL[c];
            let parts = 1 + rng.range_u64(0, 7) as u32;
            let len = 512 + 64 * rng.range_u64(0, 24) as u32;
            // 90 % load: the next message starts after 1/0.9 of this
            // one's wire time, on average.
            t += rng.range_u64(1, 2 * (parts as u64 * len as u64 * 10) / 9);
            let now = SimTime::from_ns(t);
            let toks = (0..parts)
                .map(|_| {
                    id += 1;
                    let mut tok = token(id, 0, len, Port(0), class);
                    if arch.uses_deadlines() {
                        let s = stampers[c].stamp(now, len, parts);
                        tok.deadline = s.deadline;
                        tok.eligible = s.eligible.unwrap_or(SimTime::ZERO);
                    }
                    tok
                })
                .collect();
            (t, toks)
        })
        .collect()
}

/// `endhost::nic`: ns per injected packet through a standalone [`Nic`]
/// (enqueue → pacing → sorted injection queue → transmit → credit),
/// driver heap subtracted.
pub fn nic_packet(arch: Architecture, slice_s: f64) -> f64 {
    let msgs = nic_messages(arch, 4_000, 0x006e_6963);
    let n_pkts: u64 = msgs.iter().map(|(_, t)| t.len() as u64).sum();
    let heap_ns = driver_heap_ns(8);
    let start = Instant::now();
    let mut per = Vec::new();
    while per.len() < 3 || start.elapsed().as_secs_f64() < slice_s {
        let mut nic = Nic::new(NicConfig {
            arch,
            link_bw: Bandwidth::gbps(8),
            peer_buffer_per_vc: 8 * 1024,
        });
        let mut d: Driver<NicEv> = Driver::new();
        for (i, (at, _)) in msgs.iter().enumerate() {
            d.at(*at, NicEv::Message(i as u32));
        }
        let mut actions: Vec<NodeAction> = Vec::with_capacity(16);
        let mut injected = 0u64;
        let t = Instant::now();
        while let Some((now, ev)) = d.next() {
            let at = SimTime::from_ns(now);
            match ev {
                NicEv::Message(i) => nic.enqueue_batch(&msgs[i as usize].1, at, &mut actions),
                NicEv::Wake => nic.on_wake(at, &mut actions),
                NicEv::TxDone => nic.on_tx_done(at, &mut actions),
                NicEv::Credit(vc, bytes) => {
                    nic.on_credit(dqos_core::Vc::ALL[vc as usize], bytes, at, &mut actions)
                }
            }
            for a in actions.drain(..) {
                match a {
                    NodeAction::StartTx { tok, finish, .. } => {
                        injected += 1;
                        d.at(finish.as_ns(), NicEv::TxDone);
                        // The leaf switch forwards the packet one wire
                        // time later and returns its credit.
                        d.at(
                            finish.as_ns() + tok.len as u64 + 64,
                            NicEv::Credit(tok.vc.idx() as u8, tok.len),
                        );
                    }
                    NodeAction::WakeAt { at } => d.at(at.as_ns(), NicEv::Wake),
                    NodeAction::SendCredit { .. } | NodeAction::ScheduleXbarDone { .. } => {}
                }
            }
        }
        let ns = t.elapsed().as_nanos() as f64;
        assert_eq!(injected, n_pkts, "the standalone NIC lost packets");
        per.push(((ns - d.pushes as f64 * heap_ns) / injected as f64).max(0.0));
    }
    median(&per)
}

/// `endhost::sink`: ns per delivered packet through [`Sink::on_packet`]
/// (in-order check + reassembly) over 64 interleaved flows. Panics if
/// the sink reports an out-of-order or broken message.
pub fn sink_packet(slice_s: f64) -> f64 {
    let mut rng = SimRng::new(0x7369_6e6b);
    let route = PortPath::new(&[Port(1), Port(17), Port(3)]);
    let mut next_msg = vec![0u64; 64];
    let mut pkts = Vec::with_capacity(60_000);
    let mut id = 0u64;
    while pkts.len() < 50_000 {
        let f = rng.index(64);
        let parts = 1 + rng.range_u64(0, 7) as u32;
        let msg_id = next_msg[f];
        next_msg[f] += 1;
        for part in 0..parts {
            id += 1;
            pkts.push(Packet {
                id,
                flow: FlowId(f as u32),
                class: TrafficClass::ALL[f % 4],
                src: HostId(f as u32),
                dst: HostId(100),
                len: 1024,
                deadline: SimTime::from_ns(id * 100),
                eligible: None,
                route,
                hop: 2,
                injected_at: SimTime::from_ns(id * 90),
                msg: MsgTag {
                    msg_id,
                    part,
                    parts,
                    created_at: SimTime::from_ns(id * 80),
                },
                corrupted: false,
            });
        }
    }
    ns_per_item(slice_s, 3, || {
        let mut sink = Sink::new();
        let mut done = 0u64;
        for p in &pkts {
            let (_, msg) = sink.on_packet(p, SimTime::from_ns(p.id * 110));
            done += msg.is_some() as u64;
        }
        let s = sink.stats();
        assert_eq!(
            (s.out_of_order, s.broken_messages),
            (0, 0),
            "sink saw a misordered stream"
        );
        black_box(done);
        pkts.len() as u64
    })
}

/// `core::deadline`: ns per [`Stamper::stamp`] call over 64 flows in the
/// simulator's three deadline modes.
pub fn stamp_packet(slice_s: f64) -> f64 {
    let link = Bandwidth::gbps(8);
    let mut stampers: Vec<Stamper> = (0..64)
        .map(|i| match i % 3 {
            0 => Stamper::new(DeadlineMode::FullLink(link)),
            1 => Stamper::with_eligible(
                DeadlineMode::FrameSpread {
                    target: SimDuration::from_ms(10),
                },
                SimDuration::from_us(20),
            ),
            _ => Stamper::new(DeadlineMode::AvgBandwidth(Bandwidth::mbytes_per_sec(25))),
        })
        .collect();
    let mut rng = SimRng::new(0x7374_616d);
    let ops: Vec<(u8, u32, u32)> = (0..100_000)
        .map(|_| {
            (
                rng.index(64) as u8,
                64 + rng.range_u64(0, 1984) as u32,
                1 + rng.range_u64(0, 39) as u32,
            )
        })
        .collect();
    let mut now = 0u64;
    ns_per_item(slice_s, 3, || {
        let mut acc = 0u64;
        for &(f, len, parts) in &ops {
            now += 7;
            let s = stampers[f as usize].stamp(SimTime::from_ns(now), len, parts);
            acc = acc.wrapping_add(s.deadline.as_ns());
        }
        black_box(acc);
        ops.len() as u64
    })
}

/// `core::admission`: µs per admit + release pair on `topology`, flows
/// of 12.5–50 MB/s between random host pairs. Panics if a release is
/// refused.
pub fn admission_pair_us(topology: ClosParams, slice_s: f64) -> f64 {
    let net = FoldedClos::build(topology);
    let n = net.n_hosts() as u64;
    let mut rng = SimRng::new(0x6164_6d74);
    let pairs: Vec<(u32, u32, u64)> = (0..1_024)
        .map(|_| {
            let s = rng.range_u64(0, n - 1);
            let mut d = rng.range_u64(0, n - 2);
            if d >= s {
                d += 1;
            }
            (s as u32, d as u32, 12_500_000 * (1 + rng.range_u64(0, 3)))
        })
        .collect();
    let mut ac = AdmissionController::new(&net, Bandwidth::gbps(8), 1.0);
    let mut routes: Vec<(Route, Bandwidth)> = Vec::with_capacity(pairs.len());
    ns_per_item(slice_s, 3, || {
        for &(s, d, bw) in &pairs {
            let bw = Bandwidth::bytes_per_sec(bw);
            if let Ok(adm) = ac.admit(&net, HostId(s), HostId(d), bw) {
                routes.push((adm.route, bw));
            }
        }
        for (r, bw) in routes.drain(..) {
            ac.release(&net, &r, bw)
                .expect("release of a granted admission");
        }
        pairs.len() as u64
    }) / 1e3
}

/// `topology`: ms per [`FoldedClos::build`].
pub fn topology_build_ms(topology: ClosParams, slice_s: f64) -> f64 {
    ns_per_item(slice_s, 5, || {
        black_box(FoldedClos::build(topology).n_links());
        1
    }) / 1e6
}

/// `traffic`: ns per [`dqos_traffic::TrafficSource::emit`] over the
/// Table-1 sources of up to eight hosts, each source fired in turn at
/// its own next time.
pub fn traffic_message(mix: &MixConfig, topology: ClosParams, slice_s: f64) -> f64 {
    let n_hosts = topology.n_hosts();
    let mut rng = SimRng::new(0x7472_6166);
    let mut sources = Vec::new();
    for h in 0..n_hosts.min(8) {
        sources.extend(build_host_sources(mix, HostId(h), n_hosts, &mut rng));
    }
    let mut next: Vec<SimTime> = sources
        .iter_mut()
        .map(|s| s.first_arrival(&mut rng))
        .collect();
    let n = sources.len();
    let mut i = 0;
    ns_per_item(slice_s, 3, || {
        let mut bytes = 0u64;
        for _ in 0..50_000 {
            let (msg, t) = sources[i].emit(next[i], &mut rng);
            bytes = bytes.wrapping_add(msg.bytes);
            next[i] = t;
            i = if i + 1 == n { 0 } else { i + 1 };
        }
        black_box(bytes);
        50_000
    })
}

/// `stats::hist`: ns per [`LogHistogram::record`] of latency-like values.
pub fn hist_record(slice_s: f64) -> f64 {
    let mut rng = SimRng::new(0x6869_7374);
    let vals: Vec<u64> = (0..100_000)
        .map(|_| 1u64 << rng.range_u64(6, 26) | rng.range_u64(0, 63))
        .collect();
    ns_per_item(slice_s, 3, || {
        let mut h = LogHistogram::new();
        for &v in &vals {
            h.record(v);
        }
        black_box(h.count());
        vals.len() as u64
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standalone_models_forward_everything() {
        for arch in [Architecture::Advanced2Vc, Architecture::Traditional2Vc] {
            let (_, fwd, _) = switch_batch(arch, 0.1, 3);
            assert_eq!(fwd, SWITCH_PACKETS);
            assert!(nic_packet(arch, 0.0) > 0.0);
        }
        assert!(sink_packet(0.0) > 0.0);
    }
}
