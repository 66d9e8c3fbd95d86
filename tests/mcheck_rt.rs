//! Systematic concurrency checking of the *production* lock-free SPSC
//! ring channel — the real `sim_core::ring` code, not an abstract model
//! of it (see DESIGN.md §13).
//!
//! Run with `cargo test --features mcheck --test mcheck_rt`. The
//! `mcheck` feature routes every atomic/thread operation in that
//! module through the controlled scheduler of `dqos-mcheck-rt`, which
//! explores thread interleavings exhaustively under a CHESS-style
//! preemption bound with sleep-set partial-order reduction, checks a
//! vector-clock happens-before relation built from the *declared*
//! memory orderings, and shrinks any failure to a replayable schedule
//! (printed as `DQOS_MCHECK_REPLAY=...`).
//!
//! Each seeded-bug test weakens the protocol the way a plausible
//! regression would — demote a Release edge to Relaxed — and asserts
//! the checker kills the mutant within the bounded budget
//! (`DQOS_MCHECK_BUDGET`).
#![cfg(feature = "mcheck")]

use deadline_qos::sim_core::ring::SpscRing;
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
