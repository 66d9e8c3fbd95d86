//! The discrete-event driver loop.
//!
//! A simulation is one [`World`]: it owns every node model and whatever
//! per-node state those nodes need. [`execute`] delivers `(time, key,
//! node, message)` events to [`World::handle`] in `(time, key)` order
//! from one calendar, and the messages a handler emits go straight back
//! into that calendar through its [`Outbox`].
//!
//! # Epochs
//!
//! Global state mutations (timed fault-plan entries) are **epochs**:
//! [`World::on_epoch`] runs once per epoch, after every event strictly
//! before the epoch's time and before any event at or after it. Epochs
//! past the last event still fire once the calendar drains.
//!
//! # Determinism
//!
//! Event keys encode `(source node, per-source sequence)`, so the pop
//! order at a shared tick is a pure function of who sent what, not of
//! the order in which sends reached the calendar.

// tidy: hot-path

use crate::queue::EventQueue;
use crate::time::SimTime;

/// A simulation driven by [`execute`].
///
/// The executor guarantees `handle` is called in `(time, key)` order and
/// that `on_epoch(i)` runs exactly once per epoch, after all events
/// strictly before the epoch time and before any event at or after it.
pub trait World {
    /// Message payload delivered to nodes.
    type Msg;
    /// Application-level error a handler can raise.
    type Err;
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
    /// Apply the `idx`-th epoch (called in epoch order).
    fn on_epoch(&mut self, idx: usize);
}

/// Executor configuration.
#[derive(Debug, Clone)]
pub struct ExecConfig {
    /// Times of global state mutations, strictly ascending.
    pub epochs: Vec<SimTime>,
    /// Process no event after this time (inclusive); `None` runs to
    /// drain. Epochs past the horizon do not fire.
    pub horizon: Option<SimTime>,
    /// Watchdog: maximum events at a single timestamp before the run is
    /// declared stalled.
    pub same_tick_limit: u64,
}

/// Why a run stopped early.
#[derive(Debug)]
pub enum ExecError<E> {
    /// A handler returned an error.
    App {
        /// Simulation time of the offending event.
        time: SimTime,
        /// The handler's error.
        err: E,
    },
    /// The same-tick watchdog fired: more than `same_tick_limit` events
    /// were processed without time advancing.
    SameTick {
        /// The timestamp time stopped advancing at.
        time: SimTime,
    },
}

/// What [`execute`] returns besides the world it ran: the event count,
/// the calendar's high-water mark and the error, if any.
pub struct ExecResult<E> {
    /// Events processed.
    pub events: u64,
    /// Most events pending at once in the calendar. Diagnostic only: it
    /// must never feed back into simulation state or canonical outputs
    /// (reports, traces).
    pub peak_pending: u64,
    /// The error that stopped the run, if it did not complete.
    pub error: Option<ExecError<E>>,
}

/// Where a handler's messages go: the run's calendar.
pub struct Outbox<'a, M> {
    queue: &'a mut EventQueue<(u32, M)>,
}

impl<M> Outbox<'_, M> {
    /// Send `msg` to `node`, to be handled at time `at`, ordered among
    /// same-tick events by `key` (encode `(source node, sequence)` —
    /// see [`EventQueue::schedule_keyed`]).
    #[inline]
    pub fn send(&mut self, node: u32, at: SimTime, key: u64, msg: M) {
        self.queue.schedule_keyed(at, key, (node, msg));
    }
}

/// Run `world` to completion (or to the horizon, or to its first
/// error). Panics on caller bugs (unsorted epochs).
pub fn execute<W: World>(world: &mut W, cfg: &ExecConfig) -> ExecResult<W::Err> {
    assert!(
        cfg.epochs.windows(2).all(|w| w[0] < w[1]),
        "epoch times must be strictly ascending"
    );
    // The overflow heap is not pre-reserved: it holds only far-future
    // events, a few thousand on a paper fabric, and grows to that on its
    // own.
    let mut queue: EventQueue<(u32, W::Msg)> = EventQueue::new();
    world.seed(&mut Outbox { queue: &mut queue });
    let (events, error) = run(world, &mut queue, cfg);
    ExecResult { events, peak_pending: queue.peak_len() as u64, error }
}

/// The calendar loop, with inline epochs.
fn run<W: World>(
    world: &mut W,
    queue: &mut EventQueue<(u32, W::Msg)>,
    cfg: &ExecConfig,
) -> (u64, Option<ExecError<W::Err>>) {
    let horizon = cfg.horizon.unwrap_or(SimTime::MAX);
    let mut events = 0u64;
    let mut epoch = 0usize;
    let mut last_t = SimTime::ZERO;
    let mut same_tick = 0u64;
    // Pop-first: epochs still fire before the event is *handled*
    // (popping does not touch the world), and an event past the horizon
    // is simply discarded with the loop's queue.
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
                return (events, Some(ExecError::SameTick { time: ev.time }));
            }
        } else {
            last_t = ev.time;
            same_tick = 0;
        }
        let (node, msg) = ev.payload;
        if let Err(err) = world.handle(ev.time, node, msg, &mut Outbox { queue }) {
            return (events, Some(ExecError::App { time: ev.time, err }));
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    /// Toy world: nodes pass tokens around a ring with a fixed wire
    /// delay, counting deliveries per node.
    struct Ring {
        n_nodes: u32,
        delay: u64,
        rounds: u64,
        deliveries: Vec<u64>,
        seq: Vec<u64>,
        epoch_marks: Vec<(usize, u64)>,
        /// Highest event time seen before each epoch fired.
        max_seen: u64,
    }

    impl Ring {
        fn new(n_nodes: u32) -> Self {
            Ring {
                n_nodes,
                delay: 16,
                rounds: 200,
                deliveries: vec![0; n_nodes as usize],
                seq: vec![0; n_nodes as usize],
                epoch_marks: Vec::new(),
                max_seen: 0,
            }
        }
        fn key(&mut self, node: u32) -> u64 {
            let s = self.seq[node as usize];
            self.seq[node as usize] += 1;
            ((node as u64) << 40) | s
        }
    }

    impl World for Ring {
        type Msg = u64; // hop count
        type Err = ();
        fn seed(&mut self, out: &mut Outbox<'_, u64>) {
            for n in 0..self.n_nodes {
                let k = self.key(n);
                out.send(n, SimTime::from_ns(1), k, 0);
            }
        }
        fn handle(
            &mut self,
            now: SimTime,
            node: u32,
            hops: u64,
            out: &mut Outbox<'_, u64>,
        ) -> Result<(), ()> {
            self.deliveries[node as usize] += 1;
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
    }

    fn cfg(epochs: Vec<SimTime>, horizon: Option<SimTime>) -> ExecConfig {
        ExecConfig { epochs, horizon, same_tick_limit: 1_000 }
    }

    #[test]
    fn ring_runs_every_hop_and_tracks_the_calendar_peak() {
        let mut w = Ring::new(6);
        let res = execute(&mut w, &cfg(vec![], None));
        assert!(res.error.is_none());
        // Every token makes `rounds` hops after its seeded delivery.
        assert_eq!(res.events, 6 * 201);
        assert!(w.deliveries.iter().all(|&n| n == 201));
        // Each of the 6 tokens is one pending event at any instant.
        assert_eq!(res.peak_pending, 6);
    }

    #[test]
    fn epochs_fire_in_order_between_events() {
        let e = vec![SimTime::from_ns(500), SimTime::from_ns(10_000_000)];
        let mut w = Ring::new(6);
        let res = execute(&mut w, &cfg(e, None));
        assert!(res.error.is_none());
        // Ring steps are 16 ns apart from t=1, so the last pre-epoch
        // event is at 497 ns. The second epoch lies beyond the last
        // event and still fires (trailing).
        assert_eq!(w.epoch_marks.len(), 2);
        assert_eq!((w.epoch_marks[0].0, w.epoch_marks[1].0), (0, 1));
        assert!(w.epoch_marks[0].1 < 500, "epoch 0 fired after an event at {}", w.epoch_marks[0].1);
    }

    #[test]
    fn horizon_truncates_and_skips_later_epochs() {
        let h = Some(SimTime::from_ns(700));
        let mut w = Ring::new(6);
        let res = execute(&mut w, &cfg(vec![SimTime::from_ns(800)], h));
        assert!(res.error.is_none());
        assert!(res.events < 6 * 201);
        assert!(w.max_seen <= 700);
        assert!(w.epoch_marks.is_empty(), "an epoch past the horizon must not fire");
    }

    /// A world that reschedules itself at the same instant forever.
    struct Livelock;
    impl World for Livelock {
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
        ExecConfig { epochs: vec![], horizon: None, same_tick_limit: 100 }
    }

    #[test]
    fn same_tick_watchdog_fires() {
        let res = execute(&mut Livelock, &one_node_cfg());
        match res.error {
            Some(ExecError::SameTick { time }) => assert_eq!(time, SimTime::from_ns(5)),
            other => panic!("expected SameTick, got {other:?}"),
        }
    }

    /// An erroring handler surfaces as `App`.
    struct Fails;
    impl World for Fails {
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
        let res = execute(&mut Fails, &one_node_cfg());
        match res.error {
            Some(ExecError::App { time, err: "boom" }) => assert_eq!(time, SimTime::from_ns(3)),
            other => panic!("expected App, got {other:?}"),
        }
    }
}
