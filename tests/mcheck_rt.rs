//! Systematic concurrency checking of the *production* lock-free
//! protocols: the SPSC ring channel, the free-running executor's
//! null-message ratchet and its seqlock termination scan — the real
//! `sim_core::ring` / `sim_core::exec` code, not abstract models of it
//! (the old `sim_core::mcheck` models are retired; see DESIGN.md §13).
//!
//! Run with `cargo test --features mcheck --test mcheck_rt`. The
//! `mcheck` feature routes every atomic/thread operation in those
//! modules through the controlled scheduler of `dqos-mcheck-rt`, which
//! explores thread interleavings exhaustively under a CHESS-style
//! preemption bound with sleep-set partial-order reduction, checks a
//! vector-clock happens-before relation built from the *declared*
//! memory orderings, and shrinks any failure to a replayable schedule
//! (printed as `DQOS_MCHECK_REPLAY=...`).
//!
//! Each seeded-bug test weakens the protocol the way a plausible
//! regression would — demote a Release edge to Relaxed, drain before
//! reading bounds, skip the null-message ratchet or the seqlock
//! confirming re-read — and asserts the checker kills the mutant
//! within the bounded budget (`DQOS_MCHECK_BUDGET`).
#![cfg(feature = "mcheck")]

use deadline_qos::sim_core::exec::{execute, ExecConfig, ExecEdge, Outbox, PartWorld};
use deadline_qos::sim_core::ring::SpscRing;
use deadline_qos::sim_core::time::{SimDuration, SimTime};
use dqos_mcheck_rt::tsync;
use dqos_mcheck_rt::{explore, ExploreOpts, Violation};

// ---------------------------------------------------------------------
// SPSC ring: the Release/Acquire cursor protocol on the real
// `push`/`pop` code.
// ---------------------------------------------------------------------

/// Producer streams `n` records through a ring while the consumer pops
/// them, both as managed threads. Exercises every edge of the cursor
/// protocol: payload publication via `tail`, slot reuse via `head`.
fn ring_driver(n: u64) {
    let r = SpscRing::new(8);
    tsync::scope(|s| {
        let producer = s.spawn(|| {
            for i in 0..n {
                while !r.push(&[i, !i]) {
                    tsync::yield_now();
                }
            }
        });
        let mut buf = Vec::new();
        let mut next = 0u64;
        while next < n {
            if r.pop(&mut buf) {
                assert_eq!(buf, vec![next, !next], "record {next} torn or reordered");
                next += 1;
            } else {
                tsync::yield_now();
            }
        }
        producer.join().expect("producer");
    });
    assert!(r.is_empty());
}

#[test]
fn ring_protocol_is_race_free_under_exhaustive_exploration() {
    let report = explore(&ExploreOpts::default(), || ring_driver(2));
    report.require_clean("SpscRing push/pop");
    assert!(report.executions >= 2, "must explore more than one interleaving");
}

/// Relaxed-where-release: the producer's `tail` publication demoted to
/// Relaxed leaves the consumer's payload reads unordered against the
/// producer's payload writes.
#[test]
fn ring_demoted_tail_store_is_a_race() {
    let o = ExploreOpts { mutation: Some("demote-store:ring.tail".into()), ..Default::default() };
    let report = explore(&o, || ring_driver(2));
    let v = report.require_violation("ring.tail store demoted to Relaxed");
    assert!(matches!(v, Violation::Race { .. }), "expected a race, got {v:?}");
}

/// Dropped acquire: the consumer's `tail` load demoted to Relaxed —
/// same unordered payload access from the read side.
#[test]
fn ring_demoted_tail_load_is_a_race() {
    let o = ExploreOpts { mutation: Some("demote-load:ring.tail".into()), ..Default::default() };
    let report = explore(&o, || ring_driver(2));
    let v = report.require_violation("ring.tail load demoted to Relaxed");
    assert!(matches!(v, Violation::Race { .. }), "expected a race, got {v:?}");
}

// ---------------------------------------------------------------------
// Executor: a token relay across two partitions (cross-partition ring
// traffic) and a pair of local event chains (null-message ping-pong).
// ---------------------------------------------------------------------

const LOOKAHEAD: u64 = 2;

/// Two-node world: node 0 lives in partition 0, node 1 in partition 1
/// (or both in partition 0 for the serial oracle). Every delivery is
/// appended to an order-sensitive log; a message carrying `hops > 0`
/// relays to the other node after the edge lookahead. The drain hook
/// logs every cross-partition message with the node it is for, the way
/// the network runtime queues a crossing packet on its receiving link.
struct RelayWorld {
    part: u32,
    part_of: Vec<u32>,
    plan: &'static [(u64, u32, u64)],
    log: Vec<(u64, u32, u64)>,
    /// `(node, hops)` of each message drained from the other partition.
    drained: Vec<(u32, u64)>,
    seq: u64,
}

impl RelayWorld {
    fn new(part: u32, part_of: Vec<u32>, plan: &'static [(u64, u32, u64)]) -> Self {
        RelayWorld { part, part_of, plan, log: Vec::new(), drained: Vec::new(), seq: 0 }
    }
}

impl PartWorld for RelayWorld {
    type Msg = u64;
    type Err = ();

    fn seed(&mut self, out: &mut Outbox<'_, u64>) {
        for &(t, node, hops) in self.plan {
            if self.part_of[node as usize] == self.part {
                out.send(node, SimTime::from_ns(t), (node as u64) << 32, hops);
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
        self.log.push((now.as_ns(), node, hops));
        if hops > 0 {
            self.seq += 1;
            let dst = 1 - node;
            let key = ((node as u64) << 32) | self.seq;
            out.send(dst, now + SimDuration::from_ns(LOOKAHEAD), key, hops - 1);
        }
        Ok(())
    }

    fn on_epoch(&mut self, _idx: usize) {}

    fn rehydrate(&mut self, from_part: u32, node: u32, hops: u64) -> u64 {
        assert_eq!(from_part, 1 - self.part, "drained from the only neighbour");
        assert_eq!(self.part_of[node as usize], self.part, "drained for a local node");
        self.drained.push((node, hops));
        hops
    }
}

fn cfg(part_of: Vec<u32>) -> ExecConfig {
    ExecConfig {
        lookahead: SimDuration::from_ns(LOOKAHEAD),
        // Edge order chosen so the termination scan walks the 1 -> 0
        // ring before the 0 -> 1 ring — the window the seqlock re-read
        // exists to close.
        edges: Some(vec![
            ExecEdge { from: 1, to: 0, lookahead: SimDuration::from_ns(LOOKAHEAD) },
            ExecEdge { from: 0, to: 1, lookahead: SimDuration::from_ns(LOOKAHEAD) },
        ]),
        ring_words: 64,
        epochs: Vec::new(),
        horizon: None,
        same_tick_limit: 64,
        part_of,
    }
}

/// Serial-oracle per-partition logs: run the plan on one partition
/// (the bit-exact serial loop, no threads, no shim involvement) and
/// split its global-order log by the owning partition of each node.
fn oracle_logs(plan: &'static [(u64, u32, u64)]) -> [Vec<(u64, u32, u64)>; 2] {
    let w = RelayWorld::new(0, vec![0, 0], plan);
    let mut c = cfg(vec![0, 0]);
    c.edges = None;
    let r = execute(vec![w], c);
    assert!(r.error.is_none(), "oracle failed");
    let mut split = [Vec::new(), Vec::new()];
    for &e in &r.worlds[0].log {
        split[e.1 as usize].push(e);
    }
    split
}

/// One parallel run under the controlled scheduler, compared against
/// the oracle. Any interleaving that loses, reorders or duplicates an
/// event panics here, which the checker reports as a violation with a
/// replayable schedule.
fn exec_driver(plan: &'static [(u64, u32, u64)], expected: &[Vec<(u64, u32, u64)>; 2]) {
    let part_of = vec![0u32, 1u32];
    let worlds = vec![
        RelayWorld::new(0, part_of.clone(), plan),
        RelayWorld::new(1, part_of.clone(), plan),
    ];
    let r = execute(worlds, cfg(part_of));
    assert!(r.error.is_none(), "parallel run errored: {:?}", r.error.map(|_| ()));
    assert_eq!(r.worlds[0].log, expected[0], "partition 0 diverged from the serial oracle");
    assert_eq!(r.worlds[1].log, expected[1], "partition 1 diverged from the serial oracle");
    // Every unseeded delivery crossed partitions (a relay always targets
    // the other node), and each link has one sender, so the drain hook
    // saw exactly those messages, in the order they were handled.
    for (p, w) in r.worlds.iter().enumerate() {
        let relayed: Vec<(u32, u64)> = w
            .log
            .iter()
            .filter(|&&(t, node, hops)| !plan.contains(&(t, node, hops)))
            .map(|&(_, node, hops)| (node, hops))
            .collect();
        assert_eq!(w.drained, relayed, "partition {p}: drains differ from crossings");
    }
}

/// Token relay 0 -> 1 -> 0: cross-partition records in both directions.
const RELAY: &[(u64, u32, u64)] = &[(1, 0, 2)];
/// Independent local chains: progress depends purely on the
/// null-message ratchet ping-pong (no payload ever crosses).
const CHAINS: &[(u64, u32, u64)] = &[(1, 0, 0), (10, 0, 0), (6, 1, 0)];
/// One record crossing 1 -> 0 that must gate a later local event on
/// partition 0: node 1 fires at t=1 and relays to node 0 at t=3, which
/// must be handled before node 0's own seeded t=4 event.
const CROSS: &[(u64, u32, u64)] = &[(1, 1, 1), (4, 0, 0)];

#[test]
fn exec_relay_matches_oracle_under_bounded_exploration() {
    let expected = oracle_logs(RELAY);
    let report = explore(&ExploreOpts::default(), || exec_driver(RELAY, &expected));
    report.require_clean("free-running executor, token relay");
    assert!(report.executions >= 2);
}

#[test]
fn exec_null_message_ping_pong_matches_oracle() {
    let expected = oracle_logs(CHAINS);
    let report = explore(&ExploreOpts::default(), || exec_driver(CHAINS, &expected));
    report.require_clean("free-running executor, null-message ping-pong");
}

/// Stale-bound read: draining before reading the in-edge bounds (here:
/// re-reading them after the drain, which admits the same bad window)
/// lets a partition process a local burst that should have waited for a
/// record pushed between the two — the exact inversion the module-doc
/// safety argument forbids.
#[test]
fn exec_drain_before_bound_mutant_is_killed() {
    let expected = oracle_logs(CROSS);
    let o = ExploreOpts {
        mutation: Some("exec.drain-before-bound".into()),
        ..Default::default()
    };
    let report = explore(&o, || exec_driver(CROSS, &expected));
    let v = report.require_violation("drain-before-bound");
    assert!(
        matches!(v, Violation::Panic { .. } | Violation::Race { .. }),
        "expected an oracle divergence, got {v:?}"
    );
}

/// Dropped null messages: idle partitions stop ratcheting their
/// out-bounds and the whole fabric starves — every thread ends up
/// yield-parked with no store pending.
#[test]
fn exec_skip_null_messages_mutant_livelocks() {
    let expected = oracle_logs(CHAINS);
    let o = ExploreOpts {
        mutation: Some("exec.skip-null-messages".into()),
        ..Default::default()
    };
    let report = explore(&o, || exec_driver(CHAINS, &expected));
    let v = report.require_violation("skip-null-messages");
    assert!(
        matches!(v, Violation::Livelock | Violation::Deadlock { .. }),
        "expected a livelock, got {v:?}"
    );
}

/// Torn seqlock: skipping the confirming version re-read lets the scan
/// certify a snapshot spliced across another partition's active
/// iteration — `done` rises with a record still in flight and the run
/// exits without processing it.
#[test]
fn exec_skip_version_reread_mutant_is_killed() {
    let expected = oracle_logs(RELAY);
    let o = ExploreOpts {
        mutation: Some("exec.skip-version-reread".into()),
        ..Default::default()
    };
    let report = explore(&o, || exec_driver(RELAY, &expected));
    let v = report.require_violation("skip-version-reread");
    assert!(
        matches!(v, Violation::Panic { .. } | Violation::Race { .. }),
        "expected a lost event, got {v:?}"
    );
}

/// Relaxed seqlock ingredient: the published calendar head demoted to
/// Relaxed is unordered against the termination scan's read of it.
#[test]
fn exec_demoted_head_store_is_a_race() {
    let expected = oracle_logs(RELAY);
    let o = ExploreOpts {
        mutation: Some("demote-store:exec.head".into()),
        ..Default::default()
    };
    let report = explore(&o, || exec_driver(RELAY, &expected));
    let v = report.require_violation("demote-store:exec.head");
    assert!(matches!(v, Violation::Race { .. }), "expected a race, got {v:?}");
}
