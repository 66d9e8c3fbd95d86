//! Per-class injection runs: the EDF NIC's deadline-ordered ready
//! queues without a sorted insert.
//!
//! A host stamps every class from its own virtual clock, and eligible
//! packets are promoted in eligible-time order, so within one class the
//! deadlines reaching a VC's injection queue almost always arrive in
//! non-decreasing order. Each (VC, class) therefore keeps a *run*: a FIFO
//! whose entries are already sorted by `(deadline, seq)`, where `seq` is
//! the VC's insertion counter. Enqueue appends; the VC's head is the
//! smallest `(deadline, seq)` among its classes' heads. That is exactly
//! the order a single stable deadline-sorted queue per VC gives
//! ([`dqos_queues::DeadlineSortedQueue`], the reference the NIC tests
//! check against), at O(1) per operation.
//!
//! A packet whose deadline is below its run's tail takes an exact
//! fallback: a per-run side heap keyed by the same `(deadline, seq)`,
//! merged at the head. (Seeded paper runs never take it; the tests do.)
//!
//! Runs are chains of fixed-size blocks from one pool per NIC; a block is
//! returned to the pool's free list as soon as its last entry leaves, so
//! the footprint follows the packets queued (plus at most one partly used
//! block per run at each end), not the deepest backlog any one queue
//! ever reached.
//!
//! A block entry keeps only what differs between the tokens of one run
//! (32 bytes): the run implies the VC and class, a host token is at hop
//! 0, and a ready token's eligible time is spent (the NIC zeroes it on
//! promotion, and the wire never carries it). A token whose length does
//! not fit the entry's 16 bits takes the fallback heap, which keeps
//! whole tokens.

// tidy: hot-path

use dqos_core::{PktTok, TrafficClass, Vc, NUM_CLASSES, NUM_VCS};
use dqos_sim_core::SimTime;
use dqos_topology::Port;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// Entries per block.
const BLOCK: usize = 64;

/// No block.
const NIL: u32 = u32::MAX;

/// Sort key of a queued token: deadline, then VC insertion order.
type Key = (SimTime, u64);

/// One queued token of a run, with its sequence key.
#[derive(Debug, Clone, Copy)]
struct Entry {
    id: u64,
    deadline: SimTime,
    seq: u64,
    slot: u32,
    len: u16,
    out: Port,
}

// A widened field must fail the build: a loaded paper run queues ≈100 k.
const _: () = assert!(std::mem::size_of::<Entry>() <= 32);

impl Entry {
    const VACANT: Entry =
        Entry { id: 0, deadline: SimTime::ZERO, seq: 0, slot: 0, len: 0, out: Port(0) };

    /// The entry for `tok`, if its length fits.
    fn of(seq: u64, tok: &PktTok) -> Option<Entry> {
        debug_assert!(tok.hop == 0 && tok.eligible == SimTime::ZERO, "not a ready host token");
        let len = u16::try_from(tok.len).ok()?;
        Some(Entry { id: tok.id, deadline: tok.deadline, seq, slot: tok.slot, len, out: tok.out })
    }

    /// The token back, on `class`'s run.
    fn tok(&self, class: TrafficClass) -> PktTok {
        PktTok {
            id: self.id,
            deadline: self.deadline,
            eligible: SimTime::ZERO,
            slot: self.slot,
            len: self.len as u32,
            out: self.out,
            hop: 0,
            vc: class.vc(),
            class,
        }
    }
}

/// A fixed-size piece of a run.
#[derive(Debug)]
struct Block {
    /// The following block of the same run, or [`NIL`].
    next: u32,
    ent: [Entry; BLOCK],
}

/// Blocks shared by all runs of one NIC.
#[derive(Debug, Default)]
struct Pool {
    blocks: Vec<Box<Block>>,
    /// Vacant block indices (LIFO: a recycled block is still warm).
    free: Vec<u32>,
}

impl Pool {
    fn alloc(&mut self) -> u32 {
        if let Some(b) = self.free.pop() {
            self.blocks[b as usize].next = NIL;
            return b;
        }
        self.blocks.push(Box::new(Block { next: NIL, ent: [Entry::VACANT; BLOCK] }));
        (self.blocks.len() - 1) as u32
    }

    fn release(&mut self, b: u32) {
        self.free.push(b);
    }
}

/// A fallback entry: a token whose deadline undercut its run's tail.
#[derive(Debug)]
struct Late {
    key: Reverse<Key>,
    tok: PktTok,
}

impl PartialEq for Late {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl Eq for Late {}

impl PartialOrd for Late {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Late {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key.cmp(&other.key)
    }
}

/// One (VC, class) run plus its fallback heap.
#[derive(Debug)]
struct Run {
    /// First and last block, or [`NIL`] when the run is empty.
    head: u32,
    tail: u32,
    /// Next entry to read in `head`.
    lo: usize,
    /// Entries written in `tail`.
    hi: usize,
    /// Deadline of the run's tail entry (valid while the run is non-empty).
    last: SimTime,
    late: BinaryHeap<Late>,
}

impl Run {
    fn new() -> Self {
        Run { head: NIL, tail: NIL, lo: 0, hi: 0, last: SimTime::ZERO, late: BinaryHeap::new() }
    }

    /// Append `e`: the caller guarantees its deadline is not below the
    /// tail of the block chain.
    fn push(&mut self, pool: &mut Pool, e: Entry) {
        if self.head == NIL {
            let b = pool.alloc();
            (self.head, self.tail, self.lo, self.hi) = (b, b, 0, 0);
        } else if self.hi == BLOCK {
            let b = pool.alloc();
            pool.blocks[self.tail as usize].next = b;
            (self.tail, self.hi) = (b, 0);
        }
        pool.blocks[self.tail as usize].ent[self.hi] = e;
        self.hi += 1;
        self.last = e.deadline;
    }

    /// The smallest key queued and whether it sits in the fallback heap.
    fn head_key(&self, pool: &Pool) -> Option<(Key, bool)> {
        let late = self.late.peek().map(|l| l.key.0);
        if self.head == NIL {
            return late.map(|k| (k, true));
        }
        let e = &pool.blocks[self.head as usize].ent[self.lo];
        let run = (e.deadline, e.seq);
        match late {
            Some(k) if k < run => Some((k, true)),
            _ => Some((run, false)),
        }
    }

    /// The head token of `class`'s run, from the heap if `late`.
    fn front(&self, pool: &Pool, late: bool, class: TrafficClass) -> Option<PktTok> {
        if late {
            self.late.peek().map(|l| l.tok)
        } else {
            Some(pool.blocks[self.head as usize].ent[self.lo].tok(class))
        }
    }

    fn pop(&mut self, pool: &mut Pool, late: bool, class: TrafficClass) -> Option<PktTok> {
        if late {
            return self.late.pop().map(|l| l.tok);
        }
        let blk = &pool.blocks[self.head as usize];
        let tok = blk.ent[self.lo].tok(class);
        let next = blk.next;
        self.lo += 1;
        if self.head == self.tail && self.lo == self.hi {
            pool.release(self.head);
            (self.head, self.tail) = (NIL, NIL);
        } else if self.lo == BLOCK {
            pool.release(self.head);
            (self.head, self.lo) = (next, 0);
        }
        Some(tok)
    }
}

/// Both VCs' injection queues of one EDF NIC.
#[derive(Debug)]
pub(crate) struct ClassRuns {
    /// `runs[vc][class]`.
    runs: [[Run; NUM_CLASSES]; NUM_VCS],
    /// Per-VC insertion counter: the tie-break among equal deadlines.
    seq: [u64; NUM_VCS],
    len: [usize; NUM_VCS],
    pool: Pool,
    /// Enqueues that took the fallback heap.
    pub(crate) late_inserts: u64,
}

impl ClassRuns {
    pub(crate) fn new() -> Self {
        ClassRuns {
            runs: std::array::from_fn(|_| std::array::from_fn(|_| Run::new())),
            seq: [0; NUM_VCS],
            len: [0; NUM_VCS],
            pool: Pool::default(),
            late_inserts: 0,
        }
    }

    pub(crate) fn enqueue(&mut self, tok: PktTok) {
        let (v, c) = (tok.vc.idx(), tok.class.idx());
        let seq = self.seq[v];
        self.seq[v] += 1;
        self.len[v] += 1;
        let run = &mut self.runs[v][c];
        let entry =
            if run.head != NIL && tok.deadline < run.last { None } else { Entry::of(seq, &tok) };
        match entry {
            Some(e) => run.push(&mut self.pool, e),
            None => {
                self.late_inserts += 1;
                run.late.push(Late { key: Reverse((tok.deadline, seq)), tok });
            }
        }
    }

    /// The class holding `vc`'s head and whether the head is a fallback.
    fn pick(&self, v: usize) -> Option<(usize, bool)> {
        let mut best: Option<(Key, usize, bool)> = None;
        for (c, run) in self.runs[v].iter().enumerate() {
            if let Some((key, late)) = run.head_key(&self.pool) {
                if best.is_none_or(|(b, ..)| key < b) {
                    best = Some((key, c, late));
                }
            }
        }
        best.map(|(_, c, late)| (c, late))
    }

    pub(crate) fn peek(&self, vc: Vc) -> Option<PktTok> {
        let v = vc.idx();
        let (c, late) = self.pick(v)?;
        self.runs[v][c].front(&self.pool, late, TrafficClass::ALL[c])
    }

    pub(crate) fn dequeue(&mut self, vc: Vc) -> Option<PktTok> {
        let v = vc.idx();
        let (c, late) = self.pick(v)?;
        let tok = self.runs[v][c].pop(&mut self.pool, late, TrafficClass::ALL[c])?;
        self.len[v] -= 1;
        Some(tok)
    }

    pub(crate) fn len(&self, vc: Vc) -> usize {
        self.len[vc.idx()]
    }

    /// Blocks ever allocated (the pool's peak).
    #[cfg(test)]
    pub(crate) fn blocks(&self) -> usize {
        self.pool.blocks.len()
    }
}

/// Entries a block holds, for footprint tests.
#[cfg(test)]
pub(crate) const BLOCK_ENTRIES: usize = BLOCK;

#[cfg(test)]
mod tests {
    use super::*;

    fn tok(id: u64, class: TrafficClass, deadline: u64) -> PktTok {
        PktTok {
            id,
            deadline: SimTime::from_ns(deadline),
            eligible: SimTime::ZERO,
            slot: id as u32,
            len: 512,
            out: Port(0),
            hop: 0,
            vc: class.vc(),
            class,
        }
    }

    #[test]
    fn blocks_follow_queued_entries() {
        let mut q = ClassRuns::new();
        let n = 10 * BLOCK as u64;
        for i in 0..n {
            q.enqueue(tok(i, TrafficClass::BestEffort, 100 + i));
        }
        assert_eq!(q.blocks(), 10, "a run takes whole blocks, no doubling");
        for i in 0..n {
            assert_eq!(q.dequeue(Vc::BEST_EFFORT).map(|t| t.id), Some(i));
        }
        assert_eq!(q.len(Vc::BEST_EFFORT), 0);
        // Drained blocks went back to the pool: the same backlog split
        // over two classes and both VCs allocates nothing new.
        for i in 0..n / 2 {
            q.enqueue(tok(n + i, TrafficClass::Control, 100 + i));
            q.enqueue(tok(2 * n + i, TrafficClass::Background, 100 + i));
        }
        assert_eq!(q.blocks(), 10);
        assert_eq!(q.late_inserts, 0);
    }

    #[test]
    fn equal_deadlines_leave_in_insertion_order_across_classes() {
        let mut q = ClassRuns::new();
        q.enqueue(tok(1, TrafficClass::Multimedia, 500));
        q.enqueue(tok(2, TrafficClass::Control, 500));
        q.enqueue(tok(3, TrafficClass::Multimedia, 400));
        q.enqueue(tok(4, TrafficClass::Control, 500));
        assert_eq!(q.late_inserts, 1, "400 undercuts the multimedia run's tail");
        let order: Vec<u64> =
            std::iter::from_fn(|| q.dequeue(Vc::REGULATED).map(|t| t.id)).collect();
        assert_eq!(order, vec![3, 1, 2, 4]);
        assert!(q.peek(Vc::REGULATED).is_none());
    }

    #[test]
    fn oversize_tokens_take_the_fallback_heap_in_order() {
        let big = |id, deadline| PktTok { len: 70_000, ..tok(id, TrafficClass::Control, deadline) };
        let mut q = ClassRuns::new();
        // Alone in its run: the heap holds the run's only token.
        q.enqueue(big(1, 300));
        q.enqueue(tok(2, TrafficClass::Control, 200));
        q.enqueue(tok(3, TrafficClass::Control, 300));
        q.enqueue(big(4, 300));
        q.enqueue(tok(5, TrafficClass::Control, 250));
        assert_eq!(q.late_inserts, 3, "two oversize tokens, one undercut");
        assert_eq!(q.peek(Vc::REGULATED).map(|t| t.id), Some(2));
        let order: Vec<(u64, u32)> =
            std::iter::from_fn(|| q.dequeue(Vc::REGULATED).map(|t| (t.id, t.len))).collect();
        assert_eq!(order, vec![(2, 512), (5, 512), (1, 70_000), (3, 512), (4, 70_000)]);
        assert_eq!(q.len(Vc::REGULATED), 0);
    }
}
