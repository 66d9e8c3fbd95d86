//! Partitioned discrete-event executors.
//!
//! A simulation is split into `W` **partitions**, each owning a disjoint
//! set of nodes, a private calendar and whatever per-node state those
//! nodes need. The executor delivers `(time, key, node, message)` events
//! to the owning partition's [`PartWorld::handle`] in `(time, key)`
//! order and routes the messages handlers emit — locally by scheduling
//! straight into the partition's own calendar, remotely by pushing a
//! word-encoded record onto the SPSC ring channel of the edge between
//! the two partitions.
//!
//! Two executors share one semantics:
//!
//! * **Serial** (`worlds.len() == 1`): a plain calendar loop. This is
//!   the bit-exact oracle.
//! * **Free-running conservative parallel**: one `std::thread` per
//!   partition, synchronised null-message style with **no locks and no
//!   barriers on the steady-state path**. Each directed partition pair
//!   that can exchange messages is an *edge* carrying a per-edge
//!   **lookahead** `L(e)` (the minimum latency of any message crossing
//!   it), one [`SpscRing`] of event records, and a published **bound**
//!   — a lower bound (ns) on the timestamp of any record its producer
//!   may still push. A partition's **safe time** `S` is the minimum of
//!   its in-edge bounds; after fully draining its in-rings it may
//!   process every local event strictly below `S`. Bounds advance as
//!   null-message timestamps: each iteration a partition republishes,
//!   on every out-edge, `max(previous, min(calendar head, S) + L(e))`
//!   — so an idle neighbour still ratchets everyone forward, anchored
//!   by whichever partition holds the earliest real event.
//!
//! # Safety argument (why draining below `S` is exact)
//!
//! The consumer's iteration order is load-bearing: **read in-edge
//! bounds (compute `S`), then drain the rings fully, then process
//! events strictly below `S`.** Any record not caught by the drain was
//! pushed after the drain finished, hence after the bound read; the
//! producer contract says every pushed record's timestamp is at least
//! the bound it had already published, and bounds only rise — so that
//! record's time is `>= S` and cannot belong to the burst being
//! processed. Events the producer *did* push before the drain were
//! merged into the calendar (the calendar itself is the k-way merge of
//! the inbound streams and local traffic, keyed on the deterministic
//! `(tick, key)` order), so the pop order below `S` is identical to the
//! serial oracle's.
//!
//! # Termination without a barrier
//!
//! Each partition owns a seqlock-style version counter: odd while it
//! mutates shared-visible state (draining rings, processing, pushing
//! records, publishing its calendar head), even at rest. A run is over
//! when a scan observes — with no version moving and none odd — every
//! published head at or past the stop bound and every ring empty. Any
//! in-flight work either leaves a record in a ring (ring check fails),
//! a head below the stop bound (head check fails) or an odd/advanced
//! version (version check fails). The scan is performed by idle workers
//! and costs a few dozen atomic loads; the first success publishes a
//! `done` flag and everyone exits. Errors and panics short-circuit via
//! a `stop` flag exactly as before — the only lock in this file guards
//! the cold first-error slot.
//!
//! # Epochs
//!
//! Global state mutations (timed fault-plan entries) are **epochs**. In
//! the free-running executor they are *replica-local, in-band control
//! points*, not rendezvous: every partition holds its own replica of
//! epoch-mutable state and applies epoch `E` just before handling its
//! first event at or after `E`'s time (exactly where the serial loop
//! applies it). Conservative safety makes this sound: when a partition
//! pops an event at `t >= E` with `t < S`, no event below `S` — and
//! hence below... `E <= t < S` — can ever arrive, so its replica has
//! seen everything that precedes the epoch. [`PartWorld::on_epoch`] is
//! therefore invoked on **every** partition (once per epoch each);
//! epochs past the last local event fire after the run drains.
//!
//! # Determinism
//!
//! Event keys encode `(source node, per-source sequence)`, so the pop
//! order at a shared tick is a pure function of the traffic, not of
//! thread interleaving. Since a node lives in exactly one partition,
//! its handler sees its events in the same order under both executors;
//! any remaining cross-partition shared state must be replica-local or
//! order-independent (exact merges) — that contract belongs to the
//! `PartWorld` implementation and is what keeps reports bit-identical.

// tidy: hot-path

use crate::queue::EventQueue;
use crate::ring::{RingMsg, SpscRing};
use crate::time::{SimDuration, SimTime};
// The tsync shim is a verbatim std re-export in plain builds; under the
// `mcheck-rt` feature every atomic access and thread operation below
// becomes a schedule point of the systematic concurrency checker, which
// explores the null-message ratchet and the seqlock termination scan on
// this very code (tests/mcheck_rt.rs, DESIGN.md §13).
use dqos_mcheck_rt::tsync::{
    named_bool, named_u64, scope, yield_now, AtomicBool, AtomicU64, Ordering::SeqCst,
};
// tidy: allow(hot-path-sync) -- the error Mutex below is the cold first-failure slot, never taken on the steady-state path.
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Lock `m`, recovering the guard from a poisoned mutex. A poisoned
/// lock means another worker panicked; the `StopOnPanic` guard has
/// already raised `stop` and `std::thread::scope` will re-raise the
/// panic on join, so the data behind the lock is still safe to touch
/// on the way out.
// tidy: allow(hot-path-sync) -- generic cold-path helper; its only caller is the first-error latch.
fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One partition of a partitioned simulation.
///
/// Implementations own the models of their nodes plus (shared, behind
/// `Sync` wrappers) whatever read-only state crosses partitions. The
/// executor guarantees `handle` is called with this partition's events
/// in `(time, key)` order, and that `on_epoch(i)` runs on **every**
/// partition exactly once, after all its events strictly before the
/// epoch time and before any event at or after it — epoch-mutable
/// state must therefore be replicated per partition, with each replica
/// deterministically applying the same mutation.
pub trait PartWorld: Send {
    /// Message payload delivered to nodes. The [`RingMsg`] codec is how
    /// it crosses partitions (word-encoded through an [`SpscRing`]).
    type Msg: Send + RingMsg;
    /// Application-level error a handler can raise.
    type Err: Send;
    /// Schedule the initial events (runs once, before the clock moves).
    fn seed(&mut self, out: &mut Outbox<'_, Self::Msg>);
    /// Deliver one message to `node` at simulation time `now`.
    fn handle(
        &mut self,
        now: SimTime,
        node: u32,
        msg: Self::Msg,
        out: &mut Outbox<'_, Self::Msg>,
    ) -> Result<(), Self::Err>;
    /// Apply the `idx`-th epoch to this partition's replica of the
    /// epoch-mutable state (called on every partition, in epoch order).
    fn on_epoch(&mut self, idx: usize);
    /// Hook invoked for every cross-partition message to `node` as it
    /// is drained from `from_part`'s ring, before it enters the
    /// calendar. Drains follow ring order, which is the sender's send
    /// order, so a drain may run well ahead of the message's handling
    /// time and several drained messages to one node may be pending at
    /// once. The default is the identity; `dqos-netsim` uses it to pull
    /// the matching evicted packet off the edge's packet lane, re-home
    /// it into the local arena and queue its token on the receiving
    /// link.
    fn rehydrate(&mut self, from_part: u32, node: u32, msg: Self::Msg) -> Self::Msg {
        let _ = (from_part, node);
        msg
    }
}

/// A directed communication edge between two partitions.
///
/// Only pairs that can actually exchange messages need an edge; absent
/// edges do not constrain each other's safe time (a big win over a
/// single global lookahead when the topology is sparse). Sending to a
/// partition with no edge is a caller bug and fails the run with
/// [`ExecError::Config`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecEdge {
    /// Producing partition.
    pub from: u32,
    /// Consuming partition.
    pub to: u32,
    /// Minimum latency of any message on this edge. Must be positive:
    /// a zero-lookahead edge cannot ratchet and the configuration is
    /// rejected with [`ExecError::Config`] instead of deadlocking.
    pub lookahead: SimDuration,
}

/// Executor configuration.
#[derive(Debug, Clone)]
pub struct ExecConfig {
    /// Minimum latency of any cross-partition message, in ns. Used as
    /// the lookahead of every edge when `edges` is `None`; must be
    /// positive when more than one partition runs.
    pub lookahead: SimDuration,
    /// Explicit communication edges with per-edge lookahead. `None`
    /// builds the complete digraph over partitions using `lookahead`.
    pub edges: Option<Vec<ExecEdge>>,
    /// Word capacity of each edge's event ring (rounded up to a power
    /// of two). Small rings still run exactly — a full ring is
    /// backpressure, not an error — they just hand off in smaller
    /// batches.
    pub ring_words: usize,
    /// Times of global state mutations, strictly ascending.
    pub epochs: Vec<SimTime>,
    /// Process no event after this time (inclusive); `None` runs to
    /// drain. Epochs past the horizon do not fire.
    pub horizon: Option<SimTime>,
    /// Watchdog: maximum events at a single timestamp per partition
    /// before the run is declared stalled.
    pub same_tick_limit: u64,
    /// Owning partition of every node id.
    pub part_of: Vec<u32>,
}

/// Why a run stopped early.
#[derive(Debug)]
pub enum ExecError<E> {
    /// A handler returned an error.
    App {
        /// Partition that raised it.
        partition: usize,
        /// Simulation time of the offending event.
        time: SimTime,
        /// The handler's error.
        err: E,
    },
    /// The same-tick watchdog fired: a partition processed more than
    /// `same_tick_limit` events without time advancing.
    SameTick {
        /// Partition that livelocked.
        partition: usize,
        /// The timestamp time stopped advancing at.
        time: SimTime,
    },
    /// The configuration cannot run (e.g. a zero-lookahead edge, which
    /// would deadlock the conservative ratchet instead of progressing).
    Config {
        /// Human-readable description of the rejected configuration.
        detail: String,
    },
}

/// What [`execute`] returns: the worlds (back from the worker threads,
/// error or not — diagnostics live inside them), the total event count,
/// and the first error if any partition failed.
pub struct ExecResult<W: PartWorld> {
    /// The partition worlds, in partition order.
    pub worlds: Vec<W>,
    /// Events processed across all partitions.
    pub events: u64,
    /// Events processed by each partition, in partition order. Sums to
    /// `events`. Diagnostic only: the split depends on the partitioning,
    /// so it must never feed back into simulation state or canonical
    /// outputs (reports, traces).
    pub events_per_part: Vec<u64>,
    /// Most events pending at once in each partition's calendar, in
    /// partition order. Diagnostic only, like `events_per_part`; with
    /// several partitions it also depends on when rings were drained.
    pub peak_pending: Vec<u64>,
    /// First error recorded, if the run did not complete.
    pub error: Option<ExecError<W::Err>>,
}

/// Routes messages emitted by a handler: local ones go straight into
/// the partition's calendar, remote ones are staged for ring push once
/// the handler returns.
pub struct Outbox<'a, M> {
    part: u32,
    part_of: &'a [u32],
    local: &'a mut EventQueue<(u32, M)>,
    remote: Vec<RemoteMsg<M>>,
}

struct RemoteMsg<M> {
    dst_part: u32,
    node: u32,
    at: SimTime,
    key: u64,
    msg: M,
}

impl<M> Outbox<'_, M> {
    /// Send `msg` to `node`, to be handled at time `at`, ordered among
    /// same-tick events by `key` (encode `(source node, sequence)` —
    /// see [`EventQueue::schedule_keyed`]).
    #[inline]
    pub fn send(&mut self, node: u32, at: SimTime, key: u64, msg: M) {
        let p = self.part_of[node as usize];
        if p == self.part {
            self.local.schedule_keyed(at, key, (node, msg));
        } else {
            self.remote.push(RemoteMsg { dst_part: p, node, at, key, msg });
        }
    }
}

/// One directed channel of the free-running executor.
struct Chan {
    /// Word-encoded event records: `[at_ns, key, node, msg...]`.
    ring: SpscRing,
    /// Lower bound (ns) on the timestamp of any record the producer may
    /// still push — the null-message channel clock. Monotone
    /// non-decreasing; written only by the producing partition.
    bound: AtomicU64,
    /// Producing partition (passed to [`PartWorld::rehydrate`]).
    src: u32,
    /// Lookahead of this edge, in ns.
    lookahead: u64,
}

/// Shared control block of the free-running executor.
struct Ctl {
    chans: Vec<Chan>,
    /// `out_of[p][q]` — channel index of the edge `p -> q`, if any.
    out_of: Vec<Vec<Option<usize>>>,
    /// `in_of[p]` — channel indices of the edges into `p`.
    in_of: Vec<Vec<usize>>,
    /// `outs[p]` — channel indices of the edges out of `p`.
    outs: Vec<Vec<usize>>,
    /// Published calendar head (ns) of each partition: the earliest
    /// local event it has yet to process, `u64::MAX` when drained.
    /// Read only by the termination scan.
    head: Vec<AtomicU64>,
    /// Seqlock-style per-partition version: odd while the partition is
    /// mutating shared-visible state, even at rest. Monotone.
    ver: Vec<AtomicU64>,
    /// Set by the first successful termination scan.
    done: AtomicBool,
    /// Set on error or panic; short-circuits every worker.
    stop: AtomicBool,
}

/// Run a partitioned simulation to completion.
///
/// `worlds.len()` is the partition count; one world runs the serial
/// oracle loop, several run the free-running conservative executor.
/// Panics on caller bugs (bad `part_of`, unsorted epochs); rejected
/// configurations (zero lookahead) and simulation-level failures come
/// back in [`ExecResult::error`].
pub fn execute<W: PartWorld>(mut worlds: Vec<W>, cfg: ExecConfig) -> ExecResult<W> {
    assert!(!worlds.is_empty(), "at least one partition");
    assert!(
        cfg.epochs.windows(2).all(|w| w[0] < w[1]),
        "epoch times must be strictly ascending"
    );
    let n_parts = worlds.len();
    assert!(
        cfg.part_of.iter().all(|&p| (p as usize) < n_parts),
        "part_of references a partition that has no world"
    );

    // Seed every partition's calendar. Runs single-threaded, so remote
    // sends (unusual but legal) deposit directly. The overflow heap is
    // not pre-reserved: it holds only far-future events, a few thousand
    // on a paper fabric, and grows to that on its own.
    let mut queues: Vec<EventQueue<(u32, W::Msg)>> =
        (0..n_parts).map(|_| EventQueue::new()).collect();
    let mut staged: Vec<RemoteMsg<W::Msg>> = Vec::new();
    for (i, w) in worlds.iter_mut().enumerate() {
        let mut out = Outbox {
            part: i as u32,
            part_of: &cfg.part_of,
            local: &mut queues[i],
            remote: std::mem::take(&mut staged),
        };
        w.seed(&mut out);
        staged = out.remote;
        for m in staged.drain(..) {
            queues[m.dst_part as usize].schedule_keyed(m.at, m.key, (m.node, m.msg));
        }
    }

    if n_parts == 1 {
        let world = &mut worlds[0];
        let queue = &mut queues[0];
        let (events, error) = run_serial(world, queue, &cfg);
        let peak_pending = vec![queue.peak_len() as u64];
        return ExecResult { worlds, events, events_per_part: vec![events], peak_pending, error };
    }
    if let Some(detail) = validate_edges(&cfg, n_parts) {
        return ExecResult {
            worlds,
            events: 0,
            events_per_part: vec![0; n_parts],
            peak_pending: queues.iter().map(|q| q.peak_len() as u64).collect(),
            error: Some(ExecError::Config { detail }),
        };
    }
    run_parallel(worlds, queues, &cfg)
}

/// Reject configurations that cannot ratchet. Returns the reason.
fn validate_edges(cfg: &ExecConfig, n_parts: usize) -> Option<String> {
    match &cfg.edges {
        None => {
            if cfg.lookahead <= SimDuration::ZERO {
                return Some(
                    "parallel execution needs a positive lookahead (a zero-lookahead \
                     neighbour can never be waited out — the safe-time ratchet would \
                     deadlock)"
                        .to_string(),
                );
            }
        }
        Some(edges) => {
            for e in edges {
                if (e.from as usize) >= n_parts || (e.to as usize) >= n_parts {
                    return Some(format!(
                        "edge {} -> {} references a partition that has no world",
                        e.from, e.to
                    ));
                }
                if e.from == e.to {
                    return Some(format!("self-edge on partition {}", e.from));
                }
                if e.lookahead <= SimDuration::ZERO {
                    return Some(format!(
                        "zero-lookahead edge {} -> {}: the safe-time ratchet would \
                         deadlock (every neighbour needs a positive minimum message \
                         latency)",
                        e.from, e.to
                    ));
                }
            }
        }
    }
    None
}

/// The serial oracle loop: one calendar, inline epochs.
fn run_serial<W: PartWorld>(
    world: &mut W,
    queue: &mut EventQueue<(u32, W::Msg)>,
    cfg: &ExecConfig,
) -> (u64, Option<ExecError<W::Err>>) {
    let horizon = cfg.horizon.unwrap_or(SimTime::MAX);
    let mut events = 0u64;
    let mut epoch = 0usize;
    let mut last_t = SimTime::ZERO;
    let mut same_tick = 0u64;
    let mut remote_buf: Vec<RemoteMsg<W::Msg>> = Vec::new();
    // Pop-first: `peek_time` would redo the cursor's occupancy-bitmap
    // scan that `pop` is about to do anyway, doubling calendar cost per
    // event. Popping first is equivalent — epochs still fire before the
    // event is *handled* (popping does not touch the world), and an
    // event past the horizon is simply discarded with the loop's queue.
    while let Some(ev) = queue.pop() {
        if ev.time > horizon {
            break;
        }
        // Epochs fire after everything before their time, before
        // anything at or after it.
        while epoch < cfg.epochs.len() && cfg.epochs[epoch] <= ev.time {
            world.on_epoch(epoch);
            epoch += 1;
        }
        events += 1;
        if ev.time == last_t {
            same_tick += 1;
            if same_tick > cfg.same_tick_limit {
                return (events, Some(ExecError::SameTick { partition: 0, time: ev.time }));
            }
        } else {
            last_t = ev.time;
            same_tick = 0;
        }
        let (node, msg) = ev.payload;
        let mut out = Outbox {
            part: 0,
            part_of: &cfg.part_of,
            local: queue,
            remote: std::mem::take(&mut remote_buf),
        };
        let r = world.handle(ev.time, node, msg, &mut out);
        remote_buf = out.remote;
        debug_assert!(remote_buf.is_empty(), "single partition has no remote targets");
        if let Err(err) = r {
            return (events, Some(ExecError::App { partition: 0, time: ev.time, err }));
        }
    }
    // Epochs whose time lies past the last event still fire (e.g. a
    // link repair after the fabric drained).
    while epoch < cfg.epochs.len() && cfg.epochs[epoch] <= horizon {
        world.on_epoch(epoch);
        epoch += 1;
    }
    (events, None)
}

/// Build the control block: channels for every configured edge (or the
/// complete digraph), bounds initialised from the global minimum seeded
/// head — a valid lower bound on anything any partition can ever send.
fn build_ctl(cfg: &ExecConfig, n_parts: usize, init_heads: &[u64]) -> Ctl {
    let h0 = init_heads.iter().copied().min().unwrap_or(u64::MAX);
    let mut chans = Vec::new();
    let mut out_of = vec![vec![None; n_parts]; n_parts];
    let mut in_of = vec![Vec::new(); n_parts];
    let mut outs = vec![Vec::new(); n_parts];
    let mut add = |from: u32, to: u32, lookahead: u64| {
        let idx = chans.len();
        chans.push(Chan {
            ring: SpscRing::new(cfg.ring_words),
            bound: named_u64("exec.bound", h0.saturating_add(lookahead)),
            src: from,
            lookahead,
        });
        out_of[from as usize][to as usize] = Some(idx);
        in_of[to as usize].push(idx);
        outs[from as usize].push(idx);
    };
    match &cfg.edges {
        Some(edges) => {
            for e in edges {
                add(e.from, e.to, e.lookahead.as_ns());
            }
        }
        None => {
            for p in 0..n_parts as u32 {
                for q in 0..n_parts as u32 {
                    if p != q {
                        add(p, q, cfg.lookahead.as_ns());
                    }
                }
            }
        }
    }
    Ctl {
        chans,
        out_of,
        in_of,
        outs,
        head: init_heads.iter().map(|&h| named_u64("exec.head", h)).collect(),
        ver: (0..n_parts).map(|_| named_u64("exec.ver", 0)).collect(),
        done: named_bool("exec.done", false),
        stop: named_bool("exec.stop", false),
    }
}

/// Drain one in-edge ring fully, merging its records into the
/// partition's calendar (the calendar is the k-way merge point:
/// `schedule_keyed` restores the deterministic `(tick, key)` order).
fn drain_ring<W: PartWorld>(
    chan: &Chan,
    world: &mut W,
    queue: &mut EventQueue<(u32, W::Msg)>,
    scratch: &mut Vec<u64>,
) {
    while chan.ring.pop(scratch) {
        let at = SimTime::from_ns(scratch[0]);
        let key = scratch[1];
        let node = scratch[2] as u32;
        let msg = W::Msg::decode(&scratch[3..]);
        let msg = world.rehydrate(chan.src, node, msg);
        queue.schedule_keyed(at, key, (node, msg));
    }
}

/// The free-running conservative parallel executor.
fn run_parallel<W: PartWorld>(
    worlds: Vec<W>,
    queues: Vec<EventQueue<(u32, W::Msg)>>,
    cfg: &ExecConfig,
) -> ExecResult<W> {
    let n_parts = worlds.len();
    // Process strictly below this; `horizon` itself is still processed.
    let stop_bound = match cfg.horizon {
        Some(h) => h.as_ns().saturating_add(1),
        None => u64::MAX,
    };
    // Epochs past the horizon never fire.
    let epochs: Vec<u64> = cfg
        .epochs
        .iter()
        .map(|e| e.as_ns())
        .filter(|&e| e < stop_bound)
        .collect();
    let init_heads: Vec<u64> =
        queues.iter().map(|q| q.peek_time().map_or(u64::MAX, |t| t.as_ns())).collect();
    let ctl = build_ctl(cfg, n_parts, &init_heads);
    // tidy: allow(hot-path-sync) -- cold first-error slot; locked only when a run is already failing.
    let error: Mutex<Option<ExecError<W::Err>>> = Mutex::new(None);

    // The termination scan. Versions are monotone and odd while a
    // partition mutates, so an equal, all-even sum across the whole
    // check certifies that the heads and rings it read form one
    // consistent snapshot of a fully quiescent system.
    let try_finish = || -> bool {
        let mut sum1 = 0u64;
        for v in &ctl.ver {
            let x = v.load(SeqCst);
            if x & 1 == 1 {
                return false;
            }
            sum1 = sum1.wrapping_add(x);
        }
        if !ctl.head.iter().all(|h| h.load(SeqCst) >= stop_bound) {
            return false;
        }
        if !ctl.chans.iter().all(|c| c.ring.is_empty()) {
            return false;
        }
        // Seeded bug for the concurrency checker: trust the first
        // version sum without the confirming re-read, so a partition
        // that went active mid-scan slips past the quiescence check.
        #[cfg(feature = "mcheck-rt")]
        if dqos_mcheck_rt::mutation_enabled("exec.skip-version-reread") {
            ctl.done.store(true, SeqCst);
            return true;
        }
        let mut sum2 = 0u64;
        for v in &ctl.ver {
            sum2 = sum2.wrapping_add(v.load(SeqCst));
        }
        if sum1 == sum2 {
            ctl.done.store(true, SeqCst);
            true
        } else {
            false
        }
    };

    let worker = |part: usize, mut world: W, mut queue: EventQueue<(u32, W::Msg)>| {
        let mut events = 0u64;
        let mut last_t = SimTime::ZERO;
        let mut same_tick = 0u64;
        let mut epoch_next = 0usize;
        let mut remote_buf: Vec<RemoteMsg<W::Msg>> = Vec::new();
        let mut scratch: Vec<u64> = Vec::new();
        let mut enc: Vec<u64> = Vec::new();
        // Last bound published per out-edge (indexed like ctl.outs[part]);
        // keeps the single-writer stores monotone without re-reading.
        let mut pub_bounds: Vec<u64> = ctl.outs[part]
            .iter()
            .map(|&c| ctl.chans[c].bound.load(SeqCst))
            .collect();
        let fail = |e: ExecError<W::Err>| {
            let mut slot = lock_unpoisoned(&error);
            if slot.is_none() {
                *slot = Some(e);
            }
            // Release the lock before raising `stop`: under the mcheck
            // scheduler the store is a schedule (parking) point, and a
            // managed thread must never park holding a real mutex.
            drop(slot);
            ctl.stop.store(true, SeqCst);
        };
        // A panic in `world.handle` (a debug assertion, say) must still
        // release the other workers, or they spin forever and the panic
        // never propagates out of the thread scope.
        struct StopOnPanic<'a>(&'a AtomicBool);
        impl Drop for StopOnPanic<'_> {
            fn drop(&mut self) {
                if std::thread::panicking() {
                    self.0.store(true, SeqCst);
                }
            }
        }
        let _stop_guard = StopOnPanic(&ctl.stop);
        'main: while !ctl.done.load(SeqCst) && !ctl.stop.load(SeqCst) {
            // Seeded bug for the concurrency checker: drain the
            // in-rings *before* reading the bounds, inverting the
            // order the module-doc safety argument rests on — a record
            // pushed between the drain and the bound read is hidden
            // from the burst it should have gated.
            #[cfg(feature = "mcheck-rt")]
            let already_drained = dqos_mcheck_rt::mutation_enabled("exec.drain-before-bound")
                && {
                    ctl.ver[part].fetch_add(1, SeqCst);
                    for &c in &ctl.in_of[part] {
                        drain_ring(&ctl.chans[c], &mut world, &mut queue, &mut scratch);
                    }
                    ctl.ver[part].fetch_add(1, SeqCst);
                    true
                };
            #[cfg(not(feature = "mcheck-rt"))]
            let already_drained = false;
            // 1. Safe time: the minimum in-edge bound. Read *before*
            // draining — the safety argument in the module docs hangs
            // on this order.
            let mut s = u64::MAX;
            for &c in &ctl.in_of[part] {
                s = s.min(ctl.chans[c].bound.load(SeqCst));
            }
            let limit = s.min(stop_bound);
            let head = queue.peek_time().map_or(u64::MAX, |t| t.as_ns());
            let idle = head >= limit
                && ctl.in_of[part].iter().all(|&c| ctl.chans[c].ring.is_empty());
            if idle {
                // Nothing to drain, nothing processable: ratchet the
                // out-bounds (null messages) and scan for termination.
                // Publishing a bound needs no version bump — bounds are
                // monotone and the scan does not read them.
                // Seeded bug for the concurrency checker: dropping the
                // null-message ratchet starves every neighbour's safe
                // time and the fabric livelocks.
                #[cfg(feature = "mcheck-rt")]
                let skip_nulls = dqos_mcheck_rt::mutation_enabled("exec.skip-null-messages");
                #[cfg(not(feature = "mcheck-rt"))]
                let skip_nulls = false;
                if !skip_nulls {
                    let e = head.min(s);
                    for (i, &c) in ctl.outs[part].iter().enumerate() {
                        let b = e.saturating_add(ctl.chans[c].lookahead);
                        if b > pub_bounds[i] {
                            pub_bounds[i] = b;
                            ctl.chans[c].bound.store(b, SeqCst);
                        }
                    }
                }
                if try_finish() {
                    break;
                }
                yield_now();
                continue;
            }
            // Active iteration: version odd while any shared-visible
            // state (rings, published head) is in motion.
            ctl.ver[part].fetch_add(1, SeqCst);
            // 2. Drain every in-ring fully into the calendar (already
            // done this iteration by the drain-before-bound mutant).
            if !already_drained {
                for &c in &ctl.in_of[part] {
                    drain_ring(&ctl.chans[c], &mut world, &mut queue, &mut scratch);
                }
            }
            // 3. Process strictly below the safe time.
            while let Some(t) = queue.peek_time() {
                if t.as_ns() >= limit {
                    break;
                }
                // tidy: allow(no-unwrap) -- peek_time returned Some above; only this worker pops its own queue
                let ev = queue.pop().expect("peeked");
                // Replica-local epochs: apply every epoch at or before
                // this event's time, exactly like the serial loop.
                while epoch_next < epochs.len() && epochs[epoch_next] <= ev.time.as_ns() {
                    world.on_epoch(epoch_next);
                    epoch_next += 1;
                }
                events += 1;
                if ev.time == last_t {
                    same_tick += 1;
                    if same_tick > cfg.same_tick_limit {
                        fail(ExecError::SameTick { partition: part, time: ev.time });
                        break 'main;
                    }
                } else {
                    last_t = ev.time;
                    same_tick = 0;
                }
                let (node, msg) = ev.payload;
                let mut out = Outbox {
                    part: part as u32,
                    part_of: &cfg.part_of,
                    local: &mut queue,
                    remote: std::mem::take(&mut remote_buf),
                };
                let r = world.handle(ev.time, node, msg, &mut out);
                remote_buf = out.remote;
                if let Err(err) = r {
                    fail(ExecError::App { partition: part, time: ev.time, err });
                    break 'main;
                }
                for m in remote_buf.drain(..) {
                    let Some(c) = ctl.out_of[part][m.dst_part as usize] else {
                        fail(ExecError::Config {
                            detail: format!(
                                "partition {part} sent to partition {} with no declared edge",
                                m.dst_part
                            ),
                        });
                        break 'main;
                    };
                    debug_assert!(
                        m.at.as_ns() >= ev.time.as_ns().saturating_add(ctl.chans[c].lookahead),
                        "send at {} violates edge {part} -> {} lookahead {} (event at {})",
                        m.at.as_ns(),
                        m.dst_part,
                        ctl.chans[c].lookahead,
                        ev.time.as_ns(),
                    );
                    enc.clear();
                    enc.push(m.at.as_ns());
                    enc.push(m.key);
                    enc.push(m.node as u64);
                    m.msg.encode(&mut enc);
                    while !ctl.chans[c].ring.push(&enc) {
                        // Backpressure: the consumer is behind. Keep
                        // the system live while we wait — publish a
                        // floor bound (every future send happens at or
                        // after this event plus the edge lookahead) so
                        // neighbours can keep ratcheting, and drain our
                        // own in-rings so a producer blocked on *us*
                        // frees up in a send cycle.
                        for (i, &oc) in ctl.outs[part].iter().enumerate() {
                            let b = ev.time.as_ns().saturating_add(ctl.chans[oc].lookahead);
                            if b > pub_bounds[i] {
                                pub_bounds[i] = b;
                                ctl.chans[oc].bound.store(b, SeqCst);
                            }
                        }
                        for &ic in &ctl.in_of[part] {
                            drain_ring(&ctl.chans[ic], &mut world, &mut queue, &mut scratch);
                        }
                        if ctl.stop.load(SeqCst) {
                            break 'main;
                        }
                        yield_now();
                    }
                }
            }
            // 4. Publish: calendar head for the termination scan, then
            // out-bounds (min(head, S) + L per edge), then the even
            // version — the order makes the scan's snapshot sound.
            let head_now = queue.peek_time().map_or(u64::MAX, |t| t.as_ns());
            ctl.head[part].store(head_now, SeqCst);
            let e = head_now.min(s);
            for (i, &c) in ctl.outs[part].iter().enumerate() {
                let b = e.saturating_add(ctl.chans[c].lookahead);
                if b > pub_bounds[i] {
                    pub_bounds[i] = b;
                    ctl.chans[c].bound.store(b, SeqCst);
                }
            }
            ctl.ver[part].fetch_add(1, SeqCst);
        }
        // Trailing epochs fire on every replica once the run completes
        // (an error leaves them unapplied, matching the serial loop).
        if !ctl.stop.load(SeqCst) {
            while epoch_next < epochs.len() {
                world.on_epoch(epoch_next);
                epoch_next += 1;
            }
        }
        (world, events, queue.peak_len() as u64)
    };

    let mut results: Vec<(W, u64, u64)> = Vec::with_capacity(n_parts);
    scope(|s| {
        let handles: Vec<_> = worlds
            .into_iter()
            .zip(queues)
            .enumerate()
            .map(|(i, (w, q))| s.spawn(move || worker(i, w, q)))
            .collect();
        for h in handles {
            match h.join() {
                Ok(r) => results.push(r),
                // Re-raise a worker's panic with its original payload
                // (the StopOnPanic guard has already released peers).
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    let mut out_worlds = Vec::with_capacity(n_parts);
    let mut events_per_part = Vec::with_capacity(n_parts);
    let mut peak_pending = Vec::with_capacity(n_parts);
    let mut events = 0u64;
    for (w, e, peak) in results {
        out_worlds.push(w);
        events_per_part.push(e);
        peak_pending.push(peak);
        events += e;
    }
    ExecResult {
        worlds: out_worlds,
        events,
        events_per_part,
        peak_pending,
        error: error.into_inner().unwrap_or_else(PoisonError::into_inner),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Toy world: nodes pass tokens around a ring with a fixed wire
    /// delay, folding every delivery into a per-node FNV checksum. The
    /// checksums are order-sensitive, so serial/parallel equality means
    /// each node saw the identical event sequence.
    struct Ring {
        part: u32,
        part_of: Vec<u32>,
        n_nodes: u32,
        delay: u64,
        rounds: u64,
        /// (deliveries, checksum) per node (only owned nodes touched).
        state: Vec<(u64, u64)>,
        seq: Vec<u64>,
        epoch_marks: Vec<(usize, u64)>,
        /// Highest local event time seen before each epoch fired.
        max_seen: u64,
        /// Cross-partition deliveries seen via the rehydrate hook.
        rehydrated: u64,
    }

    impl Ring {
        fn new(part: u32, part_of: Vec<u32>, n_nodes: u32, delay: u64, rounds: u64) -> Self {
            Ring {
                part,
                part_of,
                n_nodes,
                delay,
                rounds,
                state: vec![(0, 0xcbf2_9ce4_8422_2325); n_nodes as usize],
                seq: vec![0; n_nodes as usize],
                epoch_marks: Vec::new(),
                max_seen: 0,
                rehydrated: 0,
            }
        }
        fn key(&mut self, node: u32) -> u64 {
            let s = self.seq[node as usize];
            self.seq[node as usize] += 1;
            ((node as u64) << 40) | s
        }
    }

    impl PartWorld for Ring {
        type Msg = u64; // hop count
        type Err = ();
        fn seed(&mut self, out: &mut Outbox<'_, u64>) {
            for n in 0..self.n_nodes {
                if self.part_of[n as usize] == self.part {
                    let k = self.key(n);
                    out.send(n, SimTime::from_ns(1), k, 0);
                }
            }
        }
        fn handle(
            &mut self,
            now: SimTime,
            node: u32,
            hops: u64,
            out: &mut Outbox<'_, u64>,
        ) -> Result<(), ()> {
            let (count, sum) = &mut self.state[node as usize];
            *count += 1;
            *sum = (*sum ^ now.as_ns().wrapping_add(hops)).wrapping_mul(0x100_0000_01b3);
            self.max_seen = self.max_seen.max(now.as_ns());
            if hops < self.rounds {
                let next = (node + 1) % self.n_nodes;
                let k = self.key(node);
                out.send(next, now + SimDuration::from_ns(self.delay), k, hops + 1);
            }
            Ok(())
        }
        fn on_epoch(&mut self, idx: usize) {
            self.epoch_marks.push((idx, self.max_seen));
        }
        fn rehydrate(&mut self, _from_part: u32, node: u32, msg: u64) -> u64 {
            assert_eq!(self.part_of[node as usize], self.part, "drained for a local node");
            self.rehydrated += 1;
            msg
        }
    }

    fn ring_cfg(part_of: Vec<u32>, epochs: Vec<SimTime>, horizon: Option<SimTime>) -> ExecConfig {
        ExecConfig {
            lookahead: SimDuration::from_ns(16),
            edges: None,
            ring_words: 1 << 12,
            epochs,
            horizon,
            same_tick_limit: 1_000,
            part_of,
        }
    }

    fn run_ring_n(
        parts: usize,
        n_nodes: u32,
        epochs: Vec<SimTime>,
        horizon: Option<SimTime>,
    ) -> ExecResult<Ring> {
        let part_of: Vec<u32> = (0..n_nodes).map(|n| n % parts as u32).collect();
        let worlds: Vec<Ring> = (0..parts)
            .map(|p| Ring::new(p as u32, part_of.clone(), n_nodes, 16, 200))
            .collect();
        execute(worlds, ring_cfg(part_of, epochs, horizon))
    }

    fn run_ring(parts: usize, epochs: Vec<SimTime>, horizon: Option<SimTime>) -> ExecResult<Ring> {
        run_ring_n(parts, 6, epochs, horizon)
    }

    /// Merge per-node state across partitions (a node's state lives in
    /// its owner; the others kept the initial value).
    fn merged(res: &ExecResult<Ring>) -> Vec<(u64, u64)> {
        let n = res.worlds[0].n_nodes as usize;
        (0..n)
            .map(|i| {
                let owner = res.worlds[0].part_of[i] as usize;
                res.worlds[owner.min(res.worlds.len() - 1)].state[i]
            })
            .collect()
    }

    #[test]
    fn parallel_matches_serial_exactly() {
        let ser = run_ring(1, vec![], None);
        assert!(ser.error.is_none());
        for parts in [2, 3] {
            let par = run_ring(parts, vec![], None);
            assert!(par.error.is_none());
            assert_eq!(par.events, ser.events, "{parts} partitions");
            assert_eq!(merged(&par), merged(&ser), "{parts} partitions");
        }
    }

    #[test]
    fn eight_partitions_match_serial() {
        let ser = run_ring_n(1, 8, vec![], None);
        let par = run_ring_n(8, 8, vec![], None);
        assert!(ser.error.is_none() && par.error.is_none());
        assert_eq!(par.events, ser.events);
        assert_eq!(merged(&par), merged(&ser));
        // Every hop crosses a partition at 8 parts / 8 nodes, and every
        // crossing runs through the rehydrate hook.
        let rehydrated: u64 = par.worlds.iter().map(|w| w.rehydrated).sum();
        assert_eq!(rehydrated + 8, par.events, "every non-seed delivery crossed");
    }

    #[test]
    fn tiny_rings_backpressure_without_divergence() {
        // An 8-word ring holds a single 5-word record at a time, so the
        // producers live in the backpressure path — results must not
        // change.
        let ser = run_ring(1, vec![], None);
        let part_of: Vec<u32> = (0..6u32).map(|n| n % 3).collect();
        let worlds: Vec<Ring> =
            (0..3).map(|p| Ring::new(p, part_of.clone(), 6, 16, 200)).collect();
        let mut cfg = ring_cfg(part_of, vec![], None);
        cfg.ring_words = 8;
        let par = execute(worlds, cfg);
        assert!(par.error.is_none());
        assert_eq!(par.events, ser.events);
        assert_eq!(merged(&par), merged(&ser));
    }

    #[test]
    fn explicit_edge_list_runs_the_ring() {
        // The 6-node ring on 3 partitions only sends p -> (p+1) % 3 and
        // p -> (p-1) % 3... in fact node n sends to n+1 only, so the
        // needed edges are exactly p -> (p+1) % 3. Extra edges are
        // allowed; missing ones would panic.
        let ser = run_ring(1, vec![], None);
        let part_of: Vec<u32> = (0..6u32).map(|n| n % 3).collect();
        let worlds: Vec<Ring> =
            (0..3).map(|p| Ring::new(p, part_of.clone(), 6, 16, 200)).collect();
        let mut cfg = ring_cfg(part_of, vec![], None);
        cfg.edges = Some(
            (0..3u32)
                .map(|p| ExecEdge {
                    from: p,
                    to: (p + 1) % 3,
                    lookahead: SimDuration::from_ns(16),
                })
                .collect(),
        );
        let par = execute(worlds, cfg);
        assert!(par.error.is_none());
        assert_eq!(par.events, ser.events);
        assert_eq!(merged(&par), merged(&ser));
    }

    #[test]
    fn events_per_part_sums_to_total() {
        for parts in [1usize, 2, 3] {
            let res = run_ring(parts, vec![], None);
            assert!(res.error.is_none());
            assert_eq!(res.events_per_part.len(), parts);
            assert_eq!(res.events_per_part.iter().sum::<u64>(), res.events);
            assert_eq!(res.peak_pending.len(), parts);
            // Each of the 6 tokens is one pending event at any instant,
            // so no calendar ever holds more than 6, and each holds at
            // least its own seeded tokens.
            assert!(res.peak_pending.iter().all(|&p| (1..=6).contains(&p)), "{parts} parts");
        }
        assert_eq!(run_ring(1, vec![], None).peak_pending, vec![6]);
    }

    #[test]
    fn epochs_fire_on_every_replica_in_order() {
        let e = vec![SimTime::from_ns(500), SimTime::from_ns(10_000_000)];
        let ser = run_ring(1, e.clone(), None);
        let par = run_ring(3, e, None);
        assert!(ser.error.is_none() && par.error.is_none());
        assert_eq!(merged(&par), merged(&ser));
        // Every partition applies every epoch to its replica, in epoch
        // order, each after its local events before the epoch time and
        // before any at or past it (ring steps are 16 ns apart from
        // t=1, so the last pre-epoch event is at 497 ns). The second
        // epoch lies beyond the last event and still fires (trailing).
        for (p, w) in par.worlds.iter().enumerate() {
            assert_eq!(w.epoch_marks.len(), 2, "partition {p}");
            assert_eq!(w.epoch_marks[0].0, 0);
            assert_eq!(w.epoch_marks[1].0, 1);
            assert!(
                w.epoch_marks[0].1 < 500,
                "partition {p}: epoch 0 fired after an event at {}",
                w.epoch_marks[0].1
            );
        }
        assert_eq!(ser.worlds[0].epoch_marks.len(), 2);
        assert!(ser.worlds[0].epoch_marks[0].1 < 500);
    }

    #[test]
    fn horizon_truncates_identically() {
        let h = Some(SimTime::from_ns(700));
        let ser = run_ring(1, vec![], h);
        let par = run_ring(2, vec![], h);
        assert!(ser.error.is_none() && par.error.is_none());
        assert!(ser.events < run_ring(1, vec![], None).events);
        assert_eq!(par.events, ser.events);
        assert_eq!(merged(&par), merged(&ser));
    }

    #[test]
    fn zero_lookahead_errors_instead_of_deadlocking() {
        // Global zero lookahead.
        let part_of: Vec<u32> = (0..6u32).map(|n| n % 2).collect();
        let worlds: Vec<Ring> =
            (0..2).map(|p| Ring::new(p, part_of.clone(), 6, 16, 200)).collect();
        let mut cfg = ring_cfg(part_of.clone(), vec![], None);
        cfg.lookahead = SimDuration::ZERO;
        let res = execute(worlds, cfg);
        match res.error {
            Some(ExecError::Config { detail }) => {
                assert!(detail.contains("lookahead"), "unhelpful detail: {detail}")
            }
            other => panic!("expected Config error, got {other:?}"),
        }
        // A single zero-lookahead edge in an otherwise fine list.
        let worlds: Vec<Ring> =
            (0..2).map(|p| Ring::new(p, part_of.clone(), 6, 16, 200)).collect();
        let mut cfg = ring_cfg(part_of, vec![], None);
        cfg.edges = Some(vec![
            ExecEdge { from: 0, to: 1, lookahead: SimDuration::from_ns(16) },
            ExecEdge { from: 1, to: 0, lookahead: SimDuration::ZERO },
        ]);
        let res = execute(worlds, cfg);
        match res.error {
            Some(ExecError::Config { detail }) => {
                assert!(detail.contains("1 -> 0"), "unhelpful detail: {detail}")
            }
            other => panic!("expected Config error, got {other:?}"),
        }
        // Serial runs don't need a lookahead at all.
        let worlds = vec![Ring::new(0, vec![0; 6], 6, 16, 200)];
        let mut cfg = ring_cfg(vec![0; 6], vec![], None);
        cfg.lookahead = SimDuration::ZERO;
        let res = execute(worlds, cfg);
        assert!(res.error.is_none());
    }

    /// A world that reschedules itself at the same instant forever.
    struct Livelock;
    impl PartWorld for Livelock {
        type Msg = ();
        type Err = ();
        fn seed(&mut self, out: &mut Outbox<'_, ()>) {
            out.send(0, SimTime::from_ns(5), 0, ());
        }
        fn handle(
            &mut self,
            now: SimTime,
            _node: u32,
            _msg: (),
            out: &mut Outbox<'_, ()>,
        ) -> Result<(), ()> {
            out.send(0, now, 1, ());
            Ok(())
        }
        fn on_epoch(&mut self, _idx: usize) {}
    }

    fn one_node_cfg() -> ExecConfig {
        ExecConfig {
            lookahead: SimDuration::from_ns(1),
            edges: None,
            ring_words: 64,
            epochs: vec![],
            horizon: None,
            same_tick_limit: 100,
            part_of: vec![0],
        }
    }

    #[test]
    fn same_tick_watchdog_fires() {
        let res = execute(vec![Livelock], one_node_cfg());
        match res.error {
            Some(ExecError::SameTick { partition: 0, time }) => {
                assert_eq!(time, SimTime::from_ns(5));
            }
            other => panic!("expected SameTick, got {other:?}"),
        }
    }

    /// An erroring handler surfaces as `App` and returns the worlds.
    struct Fails;
    impl PartWorld for Fails {
        type Msg = ();
        type Err = &'static str;
        fn seed(&mut self, out: &mut Outbox<'_, ()>) {
            out.send(0, SimTime::from_ns(3), 0, ());
        }
        fn handle(
            &mut self,
            _now: SimTime,
            _node: u32,
            _msg: (),
            _out: &mut Outbox<'_, ()>,
        ) -> Result<(), &'static str> {
            Err("boom")
        }
        fn on_epoch(&mut self, _idx: usize) {}
    }

    #[test]
    fn app_errors_propagate() {
        let res = execute(vec![Fails], one_node_cfg());
        assert_eq!(res.worlds.len(), 1);
        match res.error {
            Some(ExecError::App { partition: 0, time, err: "boom" }) => {
                assert_eq!(time, SimTime::from_ns(3));
            }
            other => panic!("expected App, got {other:?}"),
        }
    }

    /// A two-partition world where one handler errors mid-run: the
    /// error must come back and the other worker must not hang.
    struct FailsAt {
        part: u32,
    }
    impl PartWorld for FailsAt {
        type Msg = u64;
        type Err = &'static str;
        fn seed(&mut self, out: &mut Outbox<'_, u64>) {
            if self.part == 0 {
                out.send(0, SimTime::from_ns(1), 0, 0);
            }
        }
        fn handle(
            &mut self,
            now: SimTime,
            node: u32,
            hops: u64,
            out: &mut Outbox<'_, u64>,
        ) -> Result<(), &'static str> {
            if hops == 40 {
                return Err("mid-run failure");
            }
            out.send(1 - node, now + SimDuration::from_ns(10), hops + 1, hops + 1);
            Ok(())
        }
        fn on_epoch(&mut self, _idx: usize) {}
    }

    #[test]
    fn parallel_error_releases_all_workers() {
        let part_of = vec![0u32, 1];
        let worlds = vec![FailsAt { part: 0 }, FailsAt { part: 1 }];
        let res = execute(
            worlds,
            ExecConfig {
                lookahead: SimDuration::from_ns(10),
                edges: None,
                ring_words: 256,
                epochs: vec![],
                horizon: None,
                same_tick_limit: 100,
                part_of,
            },
        );
        match res.error {
            Some(ExecError::App { err: "mid-run failure", .. }) => {}
            other => panic!("expected App, got {other:?}"),
        }
    }
}
