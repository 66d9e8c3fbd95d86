//! Differential tests: the bucketed calendar against the binary-heap
//! reference oracle, on large mixed schedules.
//!
//! These are the acceptance tests for the calendar replacement: pop order
//! must be **bit-identical** — same `(time, payload)` sequence — for any
//! interleaving of schedules and pops, across wheel geometries that force
//! the overflow, migration and ring-wrap paths.

use dqos_sim_core::{
    execute, BinaryHeapQueue, EventQueue, ExecConfig, Outbox, PartWorld, SimDuration, SimRng,
    SimTime,
};

/// Drive both calendars through the same mixed schedule/pop workload and
/// assert identical pop streams.
fn differential(seed: u64, shift: u32, n_buckets: usize, total_events: u64) {
    let mut rng = SimRng::new(seed);
    let mut fast: EventQueue<u64> = EventQueue::with_geometry(shift, n_buckets);
    let mut oracle: BinaryHeapQueue<u64> = BinaryHeapQueue::new();
    let mut scheduled = 0u64;
    let mut pending = 0u64;
    let mut popped = 0u64;

    while popped < total_events {
        let do_schedule = scheduled < total_events
            && (pending == 0 || (pending < 8192 && rng.chance(0.52)));
        if do_schedule {
            // Mixed horizons: mostly near events, a tail of far events
            // (overflow), and a slug of exact ties.
            let delta = match rng.index(10) {
                0 => 0,                              // same-tick tie
                1..=6 => rng.range_u64(1, 5_000),    // near: inside wheel
                7 | 8 => rng.range_u64(5_000, 300_000), // mid: straddles horizon
                _ => rng.range_u64(300_000, 50_000_000), // far: deep overflow
            };
            let at = SimTime::from_ns(fast.now().as_ns() + delta);
            fast.schedule(at, scheduled);
            oracle.schedule(at, scheduled);
            scheduled += 1;
            pending += 1;
        } else {
            let a = fast.pop().expect("fast queue empty while pending > 0");
            let b = oracle.pop().expect("oracle queue empty while pending > 0");
            assert_eq!(
                (a.time, a.payload),
                (b.time, b.payload),
                "pop #{popped} diverged (seed {seed}, shift {shift}, buckets {n_buckets})"
            );
            assert_eq!(a.time, fast.now());
            pending -= 1;
            popped += 1;
        }
        debug_assert_eq!(fast.len(), oracle.len());
    }
    assert_eq!(fast.len(), oracle.len());
}

/// The headline differential: one million events through the default
/// geometry, bit-identical (time, seq) pop order.
#[test]
fn one_million_events_match_reference_heap() {
    differential(0xD05_CA1E, 4, 4096, 1_000_000);
}

/// Small wheels force heavy overflow traffic and ring wrap-around.
#[test]
fn stress_geometries_match_reference_heap() {
    for (seed, shift, buckets) in
        [(1u64, 0u32, 64usize), (2, 0, 128), (3, 6, 64), (4, 10, 256), (5, 2, 4096)]
    {
        differential(seed, shift, buckets, 60_000);
    }
}

/// Scheduling behind the clock is a causality bug and must panic loudly
/// in debug builds.
#[test]
#[should_panic(expected = "scheduling into the past")]
#[cfg(debug_assertions)]
fn past_scheduling_panics() {
    let mut q: EventQueue<()> = EventQueue::new();
    q.schedule(SimTime::from_us(10), ());
    q.pop();
    q.schedule(SimTime::from_us(9), ());
}

/// One node that re-arms itself every `period`, recording each firing.
struct Ticker {
    period: SimDuration,
    fired: Vec<SimTime>,
}

impl PartWorld for Ticker {
    type Msg = u64;
    type Err = ();
    fn seed(&mut self, out: &mut Outbox<'_, u64>) {
        out.send(0, SimTime::ZERO, 0, 0);
    }
    fn handle(
        &mut self,
        now: SimTime,
        node: u32,
        n: u64,
        out: &mut Outbox<'_, u64>,
    ) -> Result<(), ()> {
        self.fired.push(now);
        out.send(node, now + self.period, n + 1, n + 1);
        Ok(())
    }
    fn on_epoch(&mut self, _idx: usize) {}
}

/// The serial executor's horizon runs events *at* the horizon but
/// nothing after it — the contract the measurement windows depend on.
#[test]
fn run_until_is_horizon_inclusive() {
    let cfg = ExecConfig {
        lookahead: SimDuration::from_ns(1),
        edges: None,
        ring_words: 64,
        epochs: vec![],
        horizon: Some(SimTime::from_us(20)),
        same_tick_limit: 16,
        part_of: vec![0],
    };
    let res = execute(vec![Ticker { period: SimDuration::from_us(5), fired: vec![] }], cfg);
    assert!(res.error.is_none());
    assert_eq!(
        res.worlds[0].fired,
        (0..=4).map(|i| SimTime::from_us(5 * i)).collect::<Vec<_>>(),
        "events at 0,5,10,15,20us run; the one at 25us must not"
    );
    assert_eq!(res.events, 5);
}
