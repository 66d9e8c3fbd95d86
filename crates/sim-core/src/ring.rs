//! Word-granular single-producer / single-consumer ring channel.
//!
//! One [`SpscRing`] carries variable-length *records* — a length prefix
//! followed by `len` payload words — from one producer thread to one
//! consumer thread. No simulation uses it: the simulator runs one
//! single-threaded calendar loop. Its only remaining users are
//! perfbench's `ring.ns_per_record` per-layer row and the
//! model-checking drivers in `tests/mcheck_rt.rs`, and it can go once
//! the benchmark drops that row.
//!
//! Why words and not `T` slots: records are variable-sized and the
//! workspace forbids `unsafe`, so the ring is a fixed `Box<[AtomicU64]>`
//! and records serialise into it. There is exactly one producer and one
//! consumer per ring, so the only synchronisation is a Release store /
//! Acquire load pair on each cursor — no locks, no CAS loops, no
//! allocation after construction.
//!
//! Memory-ordering contract (explored exhaustively on the *real*
//! `push`/`pop` code by dqos-mcheck-rt — the tsync shim below routes
//! every cursor/slot access through its controlled scheduler and
//! vector-clock race detector under the `mcheck-rt` feature; see
//! tests/mcheck_rt.rs and DESIGN.md §13):
//!
//! * the producer writes payload slots *then* publishes `tail` with
//!   Release; the consumer Acquire-loads `tail` before reading slots —
//!   so every payload word a pop observes is fully written;
//! * the consumer reads payload slots *then* publishes `head` with
//!   Release; the producer Acquire-loads `head` before reusing slots —
//!   so the producer never overwrites a word the consumer has yet to
//!   read.
//!
//! The payload slot accesses themselves are `Relaxed`: the cursor
//! edges carry all the ordering, and each slot has exactly one writer
//! between any Release/Acquire pair.

// tidy: hot-path

use dqos_mcheck_rt::tsync::{named_u64, AtomicU64, Ordering};

/// Fixed-capacity single-producer / single-consumer ring of `u64`
/// words carrying length-prefixed records.
///
/// `push` and `pop` never block and never allocate; a full ring makes
/// `push` return `false`, leaving the producer to decide whether to
/// retry. Capacity is rounded up to a power of two at construction.
pub struct SpscRing {
    slots: Box<[AtomicU64]>,
    mask: u64,
    /// Consumer cursor: absolute word index of the next unread word.
    head: AtomicU64,
    /// Producer cursor: absolute word index of the next free word.
    tail: AtomicU64,
}

impl SpscRing {
    /// Create a ring holding at least `capacity_words` payload+prefix
    /// words (rounded up to the next power of two, minimum 8).
    pub fn new(capacity_words: usize) -> Self {
        let cap = capacity_words.max(8).next_power_of_two();
        let mut slots = Vec::with_capacity(cap);
        for _ in 0..cap {
            slots.push(AtomicU64::new(0));
        }
        SpscRing {
            slots: slots.into_boxed_slice(),
            mask: (cap - 1) as u64,
            head: named_u64("ring.head", 0),
            tail: named_u64("ring.tail", 0),
        }
    }

    /// Total word capacity (always a power of two).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Push one record (`words` preceded by a length prefix). Returns
    /// `false` — writing nothing — if the ring lacks room for the whole
    /// record. Call only from the ring's single producer.
    pub fn push(&self, words: &[u64]) -> bool {
        let need = words.len() as u64 + 1;
        debug_assert!(
            need <= self.slots.len() as u64,
            "record of {} words can never fit a {}-word ring",
            words.len(),
            self.slots.len()
        );
        // ordering: Acquire pairs with the consumer's Release store of
        // `head` in `pop` — slots below `head` are fully read and safe
        // to reuse.
        let head = self.head.load(Ordering::Acquire);
        // ordering: Relaxed — single producer; only this thread writes
        // `tail`, so its own last store is always visible.
        let tail = self.tail.load(Ordering::Relaxed);
        let free = self.slots.len() as u64 - (tail - head);
        if free < need {
            return false;
        }
        // ordering: Relaxed payload stores — the Release store of
        // `tail` below publishes them to the consumer's Acquire load.
        self.slots[(tail & self.mask) as usize].store(words.len() as u64, Ordering::Relaxed);
        for (i, &w) in words.iter().enumerate() {
            // ordering: Relaxed payload store — published by the
            // Release store of `tail` below.
            self.slots[((tail + 1 + i as u64) & self.mask) as usize].store(w, Ordering::Relaxed);
        }
        // ordering: Release publishes the payload stores above to the
        // consumer's Acquire load of `tail` in `pop`.
        self.tail.store(tail + need, Ordering::Release);
        true
    }

    /// Pop one record into `buf` (cleared first; length prefix
    /// stripped). Returns `false` if the ring is empty. Call only from
    /// the ring's single consumer.
    pub fn pop(&self, buf: &mut Vec<u64>) -> bool {
        // ordering: Acquire pairs with the producer's Release store of
        // `tail` in `push` — every slot below `tail` is fully written.
        let tail = self.tail.load(Ordering::Acquire);
        // ordering: Relaxed — single consumer; only this thread writes
        // `head`.
        let head = self.head.load(Ordering::Relaxed);
        if head == tail {
            return false;
        }
        // ordering: Relaxed payload load — ordered by the Acquire load
        // of `tail` above.
        let len = self.slots[(head & self.mask) as usize].load(Ordering::Relaxed);
        debug_assert!(head + 1 + len <= tail, "torn record: len prefix past tail");
        buf.clear();
        for i in 0..len {
            // ordering: Relaxed payload load — ordered by the Acquire
            // load of `tail` above.
            buf.push(self.slots[((head + 1 + i) & self.mask) as usize].load(Ordering::Relaxed));
        }
        // ordering: Release pairs with the producer's Acquire load of
        // `head` in `push` — marks the words just read as reusable.
        self.head.store(head + 1 + len, Ordering::Release);
        true
    }

    /// True when no unread record exists. Safe from any thread.
    pub fn is_empty(&self) -> bool {
        self.head.load(Ordering::SeqCst) == self.tail.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_ring_pops_nothing() {
        let r = SpscRing::new(16);
        let mut buf = Vec::new();
        assert!(r.is_empty());
        assert!(!r.pop(&mut buf));
        assert!(buf.is_empty());
    }

    #[test]
    fn records_round_trip_in_order() {
        let r = SpscRing::new(64);
        assert!(r.push(&[1, 2, 3]));
        assert!(r.push(&[]));
        assert!(r.push(&[9]));
        assert!(!r.is_empty());
        let mut buf = Vec::new();
        assert!(r.pop(&mut buf));
        assert_eq!(buf, vec![1, 2, 3]);
        assert!(r.pop(&mut buf));
        assert_eq!(buf, Vec::<u64>::new());
        assert!(r.pop(&mut buf));
        assert_eq!(buf, vec![9]);
        assert!(!r.pop(&mut buf));
        assert!(r.is_empty());
    }

    #[test]
    fn full_ring_rejects_whole_record() {
        // Capacity 8 words; each [x, y] record costs 3.
        let r = SpscRing::new(8);
        assert!(r.push(&[1, 2]));
        assert!(r.push(&[3, 4]));
        // 6 of 8 words used; a 3-word record must be refused intact.
        assert!(!r.push(&[5, 6]));
        // ... but a 2-word record still fits.
        assert!(r.push(&[7]));
        let mut buf = Vec::new();
        assert!(r.pop(&mut buf));
        assert_eq!(buf, vec![1, 2]);
        // Freeing 3 words readmits the refused record.
        assert!(r.push(&[5, 6]));
        let mut seen = Vec::new();
        while r.pop(&mut buf) {
            seen.push(buf.clone());
        }
        assert_eq!(seen, vec![vec![3, 4], vec![7], vec![5, 6]]);
    }

    #[test]
    fn wraparound_preserves_contents() {
        // Cycle many records through a tiny ring so head/tail lap the
        // buffer repeatedly and records straddle the wrap point.
        let r = SpscRing::new(8);
        let mut buf = Vec::new();
        for i in 0..1_000u64 {
            let rec = [i, i.wrapping_mul(0x9E37_79B9_7F4A_7C15), i ^ 0xFFFF];
            assert!(r.push(&rec), "push {i} failed on a drained ring");
            if i % 3 == 0 {
                // Leave one record in flight every third iteration so
                // the cursors de-phase from the buffer boundary.
                assert!(r.push(&[i + 7]));
            }
            assert!(r.pop(&mut buf));
            assert_eq!(buf, rec, "record {i} corrupted across wrap");
            if i % 3 == 0 {
                assert!(r.pop(&mut buf));
                assert_eq!(buf, vec![i + 7]);
            }
        }
        assert!(r.is_empty());
    }

    #[test]
    fn two_thread_stream_arrives_intact() {
        let r = SpscRing::new(64);
        let total = 20_000u64;
        std::thread::scope(|s| {
            s.spawn(|| {
                for i in 0..total {
                    let rec = [i, !i];
                    while !r.push(&rec) {
                        std::thread::yield_now();
                    }
                }
            });
            let mut buf = Vec::new();
            let mut next = 0u64;
            while next < total {
                if r.pop(&mut buf) {
                    assert_eq!(buf, vec![next, !next], "record {next} mangled");
                    next += 1;
                } else {
                    std::thread::yield_now();
                }
            }
        });
        assert!(r.is_empty());
    }
}
