//! The FIFO and the ordered + take-over two-queue system of §3.4, on
//! flat ring/slot storage.
//!
//! [`FlatFifo`] is the plain FIFO both baseline architectures use.
//! Under *Traditional* arbitration the deadline at its head is ignored;
//! under *Simple 2 VCs* the arbiter compares head deadlines across
//! queues — correct whenever arrivals are deadline-ordered, and the
//! source of the ≈25 % "order error" penalty when they are not (§3.2,
//! §3.4).
//!
//! [`FlatTwoQueue`] is the paper's key hardware contribution: two plain
//! FIFOs (hardware-cheap). Notation follows the appendix: `L` is the
//! *ordered queue*, `U` the *take-over queue*.
//!
//! * **Enqueue** (Definition 1): if both queues are empty, or the
//!   incoming deadline is ≥ the deadline at `L`'s tail, append to `L`;
//!   otherwise append to `U`. `L` therefore stays deadline-sorted
//!   (Theorem 1) and its tail holds the global maximum (Theorem 2).
//! * **Dequeue** (Definition 2): take the smaller of the two heads —
//!   this is how a late low-deadline packet "takes over" packets that
//!   arrived before it but are due later. A state with packets only in
//!   `U` is unreachable (Lemma 1).
//!
//! The appendix proves the discipline never reorders packets *within a
//! flow* (Theorem 3), given that each flow's packets arrive in order
//! with strictly increasing deadlines. The tests at the bottom of this
//! file replay all four results against random and exhaustive
//! arrival/service interleavings, on the bare structure and inside a
//! [`Voq`](crate::voq::Voq) bank; the whole-network integration tests
//! check the same end to end.
//!
//! Storage: a single power-of-two slot ring per queue.
//!
//! * slots are `Option<T>` in one contiguous `Vec`, head/length indices
//!   wrap with a mask — no per-element allocation ever, and growth
//!   (doubling, with an in-order copy) happens only until the ring
//!   reaches the high-water mark of its port, after which enqueue and
//!   dequeue are straight-line slot writes;
//! * the two-queue dequeue choice is a **branchless compare**: each
//!   ring's head deadline is read through an `u64::MAX` sentinel for
//!   "empty", and the candidate is the take-over head exactly when its
//!   key is *strictly* below the ordered key — which encodes Definition
//!   2, Lemma 1 (empty-ordered ⇒ empty-take-over ⇒ both sentinels), and
//!   the ties-go-to-ordered rule in one unsigned comparison.

// tidy: hot-path

use crate::traits::{Deadlined, SchedQueue};
use dqos_sim_core::SimTime;

/// Deadline key used for the branchless head compare: empty reads as
/// `u64::MAX`, so any real head wins and two empties tie (→ ordered,
/// which `candidate_is_take_over` maps back to `None`).
const EMPTY_KEY: u64 = u64::MAX;

/// A power-of-two slot ring: the storage primitive under both flat
/// queues. Not a scheduler-facing type — no deadline logic lives here.
#[derive(Debug, Clone)]
struct Ring<T> {
    slots: Vec<Option<T>>,
    head: usize,
    len: usize,
}

impl<T> Ring<T> {
    const INITIAL_CAP: usize = 8;

    fn new() -> Self {
        Ring { slots: Vec::new(), head: 0, len: 0 }
    }

    #[inline]
    fn mask(&self) -> usize {
        self.slots.len() - 1
    }

    /// Double the ring, copying live slots back in queue order so the
    /// head lands on index 0. Runs O(log n) times total per ring.
    fn grow(&mut self) {
        let new_cap = if self.slots.is_empty() { Self::INITIAL_CAP } else { self.slots.len() * 2 };
        let mut slots: Vec<Option<T>> = Vec::with_capacity(new_cap);
        if !self.slots.is_empty() {
            let mask = self.mask();
            for i in 0..self.len {
                slots.push(self.slots[(self.head + i) & mask].take());
            }
        }
        slots.resize_with(new_cap, || None);
        self.slots = slots;
        self.head = 0;
    }

    #[inline]
    fn push_back(&mut self, item: T) {
        if self.len == self.slots.len() {
            self.grow();
        }
        let idx = (self.head + self.len) & self.mask();
        self.slots[idx] = Some(item);
        self.len += 1;
    }

    #[inline]
    fn pop_front(&mut self) -> Option<T> {
        if self.len == 0 {
            return None;
        }
        let item = self.slots[self.head].take();
        debug_assert!(item.is_some(), "ring slot under head must be occupied");
        self.head = (self.head + 1) & self.mask();
        self.len -= 1;
        item
    }

    #[inline]
    fn front(&self) -> Option<&T> {
        if self.len == 0 {
            None
        } else {
            self.slots[self.head].as_ref()
        }
    }

    #[inline]
    fn back(&self) -> Option<&T> {
        if self.len == 0 {
            None
        } else {
            self.slots[(self.head + self.len - 1) & self.mask()].as_ref()
        }
    }

    fn iter(&self) -> impl Iterator<Item = &T> {
        (0..self.len).map(move |i| {
            self.slots[(self.head + i) & self.mask()]
                .as_ref()
                // tidy: allow(no-unwrap) -- every slot in [head, head+len)
                // is occupied by the ring invariant.
                .expect("ring slot within live range")
        })
    }
}

/// A FIFO queue with byte accounting, on one flat ring.
#[derive(Debug, Clone)]
pub struct FlatFifo<T> {
    ring: Ring<T>,
    bytes: u64,
}

impl<T> Default for FlatFifo<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> FlatFifo<T> {
    /// An empty queue.
    pub fn new() -> Self {
        FlatFifo { ring: Ring::new(), bytes: 0 }
    }

    /// Iterate items front to back (diagnostics).
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.ring.iter()
    }
}

impl<T: Deadlined> SchedQueue<T> for FlatFifo<T> {
    #[inline]
    fn enqueue(&mut self, item: T) {
        self.bytes += item.len_bytes() as u64;
        self.ring.push_back(item);
    }

    #[inline]
    fn head_deadline(&self) -> Option<SimTime> {
        self.ring.front().map(|p| p.deadline())
    }

    #[inline]
    fn peek(&self) -> Option<&T> {
        self.ring.front()
    }

    #[inline]
    fn dequeue(&mut self) -> Option<T> {
        let item = self.ring.pop_front()?;
        self.bytes -= item.len_bytes() as u64;
        Some(item)
    }

    fn min_deadline(&self) -> Option<SimTime> {
        self.ring.iter().map(|p| p.deadline()).min()
    }

    #[inline]
    fn len(&self) -> usize {
        self.ring.len
    }

    #[inline]
    fn bytes(&self) -> u64 {
        self.bytes
    }
}

/// The two-queue buffer structure ("Advanced 2 VCs") on two flat
/// rings, with the dequeue-side head compare reduced to one branchless
/// unsigned comparison.
///
/// ```
/// use dqos_queues::{FlatTwoQueue, SchedQueue};
/// use dqos_sim_core::SimTime;
///
/// #[derive(Clone, Copy)]
/// struct Pkt(u64);
/// impl dqos_queues::Deadlined for Pkt {
///     fn deadline(&self) -> SimTime { SimTime::from_ns(self.0) }
///     fn len_bytes(&self) -> u32 { 100 }
/// }
///
/// let mut q = FlatTwoQueue::new();
/// q.enqueue(Pkt(100));
/// q.enqueue(Pkt(500));   // ordered queue: 100, 500
/// q.enqueue(Pkt(200));   // below the tail -> take-over queue
/// assert_eq!(q.take_over_len(), 1);
/// // Dequeue always serves the smaller of the two heads: the late
/// // low-deadline packet overtakes 500 without reordering any flow.
/// assert_eq!(q.dequeue().unwrap().0, 100);
/// assert_eq!(q.dequeue().unwrap().0, 200);
/// assert_eq!(q.dequeue().unwrap().0, 500);
/// ```
#[derive(Debug, Clone)]
pub struct FlatTwoQueue<T> {
    /// Ordered queue (appendix: `L`).
    ordered: Ring<T>,
    /// Take-over queue (appendix: `U`).
    take_over: Ring<T>,
    bytes: u64,
    /// Cumulative count of packets routed to the take-over queue —
    /// each one is an *order error* the Simple architecture would have
    /// suffered. Diagnostic for the §3.4 / Figure 2 analysis.
    take_over_total: u64,
}

impl<T> Default for FlatTwoQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> FlatTwoQueue<T> {
    /// An empty structure.
    pub fn new() -> Self {
        FlatTwoQueue {
            ordered: Ring::new(),
            take_over: Ring::new(),
            bytes: 0,
            take_over_total: 0,
        }
    }

    /// Current take-over queue occupancy.
    pub fn take_over_len(&self) -> usize {
        self.take_over.len
    }

    /// Current ordered queue occupancy.
    pub fn ordered_len(&self) -> usize {
        self.ordered.len
    }

    /// Cumulative count of packets that went to the take-over queue.
    pub fn take_over_total(&self) -> u64 {
        self.take_over_total
    }
}

impl<T: Deadlined> FlatTwoQueue<T> {
    /// Head deadline of a ring through the empty sentinel.
    #[inline]
    fn key(ring: &Ring<T>) -> u64 {
        ring.front().map_or(EMPTY_KEY, |p| p.deadline().0)
    }

    /// The branchless Definition-2 compare: `true` iff the candidate is
    /// the take-over head. Strict `<` gives ties to the ordered queue
    /// and makes the empty/empty case `false`; Lemma 1 rules out
    /// ordered-empty with take-over occupied, so the sentinel ordering
    /// is exhaustive.
    #[inline]
    fn take_over_wins(&self) -> bool {
        Self::key(&self.take_over) < Self::key(&self.ordered)
    }

    /// Which queue the dequeue candidate currently sits in (`None` when
    /// empty). Public so the switch can tag crossbar grants for the
    /// flight recorder (was the winner served via the take-over path?).
    pub fn candidate_is_take_over(&self) -> Option<bool> {
        if self.ordered.len + self.take_over.len == 0 {
            None
        } else {
            Some(self.take_over_wins())
        }
    }

    /// Debug check of Theorems 1 and 2 and Lemma 1 on the live
    /// structure.
    ///
    /// * `L` is deadline-sorted.
    /// * Every element of `U` is strictly below `L`'s tail deadline.
    /// * `U` is empty whenever `L` is.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut prev: Option<SimTime> = None;
        for p in self.ordered.iter() {
            if let Some(pd) = prev {
                if p.deadline() < pd {
                    return Err(format!(
                        "ordered ring not sorted: {:?} after {:?}",
                        p.deadline(),
                        pd
                    ));
                }
            }
            prev = Some(p.deadline());
        }
        if let Some(tail) = self.ordered.back() {
            for u in self.take_over.iter() {
                if u.deadline() >= tail.deadline() {
                    return Err(format!(
                        "take-over element {:?} not below ordered tail {:?}",
                        u.deadline(),
                        tail.deadline()
                    ));
                }
            }
        } else if self.take_over.len != 0 {
            return Err("take-over non-empty while ordered empty (Lemma 1)".into());
        }
        Ok(())
    }
}

impl<T: Deadlined> SchedQueue<T> for FlatTwoQueue<T> {
    #[inline]
    fn enqueue(&mut self, item: T) {
        self.bytes += item.len_bytes() as u64;
        // Definition 1: at or above the ordered tail -> ordered queue
        // (sentinel: an empty ordered queue reads as tail ZERO, which any
        // deadline is >=, matching the both-empty -> L rule).
        let tail = self.ordered.back().map_or(0, |p| p.deadline().0);
        if item.deadline().0 >= tail {
            self.ordered.push_back(item);
        } else {
            self.take_over_total += 1;
            self.take_over.push_back(item);
        }
        debug_assert!(self.check_invariants().is_ok());
    }

    #[inline]
    fn head_deadline(&self) -> Option<SimTime> {
        let key = Self::key(&self.ordered).min(Self::key(&self.take_over));
        if key == EMPTY_KEY {
            None
        } else {
            Some(SimTime(key))
        }
    }

    #[inline]
    fn peek(&self) -> Option<&T> {
        if self.take_over_wins() {
            self.take_over.front()
        } else {
            self.ordered.front()
        }
    }

    #[inline]
    fn dequeue(&mut self) -> Option<T> {
        let item = if self.take_over_wins() {
            self.take_over.pop_front()
        } else {
            self.ordered.pop_front()
        }?;
        self.bytes -= item.len_bytes() as u64;
        debug_assert!(self.check_invariants().is_ok());
        Some(item)
    }

    fn min_deadline(&self) -> Option<SimTime> {
        // Theorem 1: the ordered ring's minimum is its head; the
        // take-over ring is unordered and needs the scan.
        let l = self.ordered.front().map(|p| p.deadline());
        let u = self.take_over.iter().map(|p| p.deadline()).min();
        match (l, u) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    #[inline]
    fn len(&self) -> usize {
        self.ordered.len + self.take_over.len
    }

    #[inline]
    fn bytes(&self) -> u64 {
        self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::test_util::Item;
    use crate::voq::Voq;
    use dqos_sim_core::SimRng;
    use std::collections::{HashMap, VecDeque};

    /// The FIFO reference model: `std`'s `VecDeque`.
    impl SchedQueue<Item> for VecDeque<Item> {
        fn enqueue(&mut self, item: Item) {
            self.push_back(item);
        }
        fn head_deadline(&self) -> Option<SimTime> {
            self.front().map(Deadlined::deadline)
        }
        fn peek(&self) -> Option<&Item> {
            self.front()
        }
        fn dequeue(&mut self) -> Option<Item> {
            self.pop_front()
        }
        fn min_deadline(&self) -> Option<SimTime> {
            self.iter().map(Deadlined::deadline).min()
        }
        fn len(&self) -> usize {
            VecDeque::len(self)
        }
        fn bytes(&self) -> u64 {
            self.iter().map(|it| it.len as u64).sum()
        }
    }

    /// The two-queue reference model: the appendix's Definitions 1 and 2
    /// transcribed over two `VecDeque`s.
    #[derive(Default)]
    struct RefTwoQueue {
        l: VecDeque<Item>,
        u: VecDeque<Item>,
        take_over_total: u64,
    }

    impl RefTwoQueue {
        /// Definition 2: the take-over head is the candidate when it is
        /// strictly more urgent than the ordered head.
        fn candidate_is_take_over(&self) -> Option<bool> {
            match (self.l.front(), self.u.front()) {
                (None, None) => None,
                (Some(_), None) => Some(false),
                (l, Some(u)) => Some(l.is_none_or(|l| u.deadline < l.deadline)),
            }
        }
    }

    impl SchedQueue<Item> for RefTwoQueue {
        /// Definition 1: below the ordered tail -> take-over queue.
        fn enqueue(&mut self, item: Item) {
            match self.l.back() {
                Some(tail) if item.deadline < tail.deadline => {
                    self.take_over_total += 1;
                    self.u.push_back(item);
                }
                _ => self.l.push_back(item),
            }
        }
        fn head_deadline(&self) -> Option<SimTime> {
            self.peek().map(Deadlined::deadline)
        }
        fn peek(&self) -> Option<&Item> {
            if self.candidate_is_take_over()? {
                self.u.front()
            } else {
                self.l.front()
            }
        }
        fn dequeue(&mut self) -> Option<Item> {
            if self.candidate_is_take_over()? {
                self.u.pop_front()
            } else {
                self.l.pop_front()
            }
        }
        fn min_deadline(&self) -> Option<SimTime> {
            self.l.iter().chain(&self.u).map(Deadlined::deadline).min()
        }
        fn len(&self) -> usize {
            self.l.len() + self.u.len()
        }
        fn bytes(&self) -> u64 {
            self.l.iter().chain(&self.u).map(|it| it.len as u64).sum()
        }
    }

    #[test]
    fn fifo_order_regardless_of_deadline() {
        let mut q = FlatFifo::new();
        q.enqueue(Item::new(0, 0, 100));
        q.enqueue(Item::new(1, 0, 50)); // earlier deadline, behind in FIFO
        assert_eq!(q.head_deadline(), Some(SimTime::from_ns(100)));
        assert_eq!(q.min_deadline(), Some(SimTime::from_ns(50)));
        assert_eq!(q.dequeue().unwrap().deadline, 100);
        assert_eq!(q.dequeue().unwrap().deadline, 50);
        assert!(q.dequeue().is_none());
        assert!(q.peek().is_none());
        assert!(q.head_deadline().is_none());
    }

    #[test]
    fn in_order_arrivals_all_go_to_ordered() {
        let mut q = FlatTwoQueue::new();
        for i in 0..10 {
            q.enqueue(Item::new(0, i, 100 * (i as u64 + 1)));
        }
        assert_eq!(q.ordered_len(), 10);
        assert_eq!(q.take_over_len(), 0);
        assert_eq!(q.take_over_total(), 0);
    }

    #[test]
    fn late_low_deadline_packet_takes_over() {
        let mut q = FlatTwoQueue::new();
        q.enqueue(Item::new(0, 0, 100));
        q.enqueue(Item::new(0, 1, 500)); // high deadline
        q.enqueue(Item::new(1, 0, 200)); // lower than tail -> take-over
        assert_eq!(q.take_over_len(), 1);
        // Dequeue order: 100 (L), then 200 (U takes over 500), then 500.
        assert_eq!(q.dequeue().unwrap().deadline, 100);
        assert_eq!(q.candidate_is_take_over(), Some(true));
        assert_eq!(q.dequeue().unwrap().deadline, 200);
        assert_eq!(q.dequeue().unwrap().deadline, 500);
        assert!(q.dequeue().is_none());
        assert_eq!(q.candidate_is_take_over(), None);
    }

    #[test]
    fn equal_deadline_goes_to_ordered() {
        let mut q = FlatTwoQueue::new();
        q.enqueue(Item::new(0, 0, 100));
        q.enqueue(Item::new(1, 0, 100)); // ">=" tail -> ordered queue
        assert_eq!(q.ordered_len(), 2);
        assert_eq!(q.take_over_len(), 0);
        // FIFO among equals.
        assert_eq!(q.dequeue().unwrap().flow, 0);
        assert_eq!(q.dequeue().unwrap().flow, 1);
    }

    #[test]
    fn tie_between_heads_prefers_ordered() {
        let mut q = FlatTwoQueue::new();
        q.enqueue(Item::new(0, 0, 100));
        q.enqueue(Item::new(0, 1, 300));
        q.enqueue(Item::new(1, 0, 100)); // -> U, ties L's head
        assert_eq!(q.dequeue().unwrap().flow, 0, "ordered head wins ties");
        assert_eq!(q.dequeue().unwrap().flow, 1);
    }

    #[test]
    fn byte_accounting_across_both_queues() {
        let mut q = FlatTwoQueue::new();
        q.enqueue(Item { flow: 0, seq: 0, deadline: 100, len: 10 });
        q.enqueue(Item { flow: 0, seq: 1, deadline: 300, len: 20 });
        q.enqueue(Item { flow: 1, seq: 0, deadline: 50, len: 40 }); // U
        assert_eq!(q.bytes(), 70);
        q.dequeue(); // 50 from U
        assert_eq!(q.bytes(), 30);
    }

    /// Assert every observable of the trait agrees between the flat
    /// structure and its reference model at the current state.
    fn assert_observables<A, B>(flat: &A, reference: &B, step: usize)
    where
        A: SchedQueue<Item>,
        B: SchedQueue<Item>,
    {
        assert_eq!(flat.len(), reference.len(), "len diverged at step {step}");
        assert_eq!(flat.bytes(), reference.bytes(), "bytes diverged at step {step}");
        assert_eq!(flat.is_empty(), reference.is_empty(), "is_empty diverged at step {step}");
        assert_eq!(
            flat.head_deadline(),
            reference.head_deadline(),
            "head_deadline diverged at step {step}"
        );
        assert_eq!(flat.peek(), reference.peek(), "peek diverged at step {step}");
        assert_eq!(
            flat.min_deadline(),
            reference.min_deadline(),
            "min_deadline diverged at step {step}"
        );
    }

    fn random_item(rng: &mut SimRng, seq: u32) -> Item {
        Item {
            flow: rng.range_u64(0, 7) as u32,
            seq,
            // Small range on purpose: plenty of deadline ties, the case
            // where the candidate compare could diverge.
            deadline: rng.range_u64(0, 63),
            len: 64 + 64 * rng.range_u64(0, 31) as u32,
        }
    }

    /// Drive identical random op-sequences (biased toward enqueue so the
    /// structures fill and wrap) through a flat structure and its
    /// reference model, checking every observable after every op.
    fn differential<A, B>(mut flat: A, mut reference: B, seed: u64, ops: usize)
    where
        A: SchedQueue<Item>,
        B: SchedQueue<Item>,
    {
        let mut rng = SimRng::new(seed);
        let mut seq = 0u32;
        for step in 0..ops {
            if rng.chance(0.6) {
                let item = random_item(&mut rng, seq);
                seq += 1;
                flat.enqueue(item);
                reference.enqueue(item);
            } else {
                assert_eq!(flat.dequeue(), reference.dequeue(), "dequeue diverged at step {step}");
            }
            assert_observables(&flat, &reference, step);
        }
        // Drain both to the end: the wrap-around exit path must agree too.
        loop {
            let (f, r) = (flat.dequeue(), reference.dequeue());
            assert_eq!(f, r, "drain diverged");
            if f.is_none() {
                break;
            }
        }
    }

    #[test]
    fn flat_fifo_matches_vecdeque() {
        for seed in [1u64, 0xF1F0, 0xDEAD_BEEF] {
            differential(FlatFifo::new(), VecDeque::new(), seed, 2_000);
        }
    }

    #[test]
    fn flat_two_queue_matches_reference() {
        for seed in [2u64, 0x2277, 0xCAFE_F00D] {
            differential(FlatTwoQueue::new(), RefTwoQueue::default(), seed, 2_000);
        }
    }

    /// The Advanced-specific observables (take-over routing and the
    /// grant tag) must agree as well — they feed `take_over_total` in the
    /// run reports, which the determinism matrix compares bit-for-bit.
    #[test]
    fn flat_two_queue_matches_take_over_accounting() {
        let mut rng = SimRng::new(0x7A0C);
        let mut flat = FlatTwoQueue::new();
        let mut reference = RefTwoQueue::default();
        let mut seq = 0u32;
        for step in 0..3_000 {
            if rng.chance(0.55) {
                let item = random_item(&mut rng, seq);
                seq += 1;
                flat.enqueue(item);
                reference.enqueue(item);
            } else {
                assert_eq!(flat.dequeue(), reference.dequeue(), "dequeue diverged at step {step}");
            }
            assert_eq!(flat.take_over_len(), reference.u.len(), "U len at step {step}");
            assert_eq!(flat.ordered_len(), reference.l.len(), "L len at step {step}");
            assert_eq!(
                flat.take_over_total(),
                reference.take_over_total,
                "take_over_total at step {step}"
            );
            assert_eq!(
                flat.candidate_is_take_over(),
                reference.candidate_is_take_over(),
                "candidate tag at step {step}"
            );
            flat.check_invariants().unwrap();
        }
    }

    #[test]
    fn ring_grows_and_wraps() {
        let mut q = FlatFifo::new();
        let mut popped = 0usize;
        // Interleave so the head walks around the ring across growth.
        for i in 0..200u32 {
            q.enqueue(Item::new(0, i, (i as u64) + 1));
            if i % 3 == 0 && q.dequeue().is_some() {
                popped += 1;
            }
        }
        // Everything still comes out in strict FIFO order.
        let mut prev = 0u64;
        let mut drained = 0usize;
        while let Some(it) = q.dequeue() {
            assert!(it.deadline > prev, "FIFO order broken across wrap");
            prev = it.deadline;
            drained += 1;
        }
        assert_eq!(popped + drained, 200, "conservation across growth and wrap");
    }

    /// The appendix suite (Theorems 1–3, Lemma 1; DESIGN §5) on the
    /// structure the switches run, driven by the in-house RNG with fixed
    /// seeds. Every test runs on the bare structure and inside a VOQ
    /// bank.
    mod appendix {
        use super::*;

        /// Where the suite's items go: one bare queue, or a VOQ bank with
        /// each flow pinned to output `flow % n` (flows follow fixed
        /// routes, so every sub-queue still sees the appendix's
        /// hypotheses).
        enum Bank<Q> {
            Bare(Q),
            Voq(Voq<Q>),
        }

        /// The two shapes every test runs on.
        fn shapes<Q>(make: fn() -> Q) -> [Bank<Q>; 2] {
            [Bank::Bare(make()), Bank::Voq(Voq::new(3, make))]
        }

        impl<Q: SchedQueue<Item>> Bank<Q> {
            fn outputs(&self) -> usize {
                match self {
                    Bank::Bare(_) => 1,
                    Bank::Voq(v) => v.n_outputs(),
                }
            }

            fn queue(&self, out: usize) -> &Q {
                match self {
                    Bank::Bare(q) => q,
                    Bank::Voq(v) => v.queue(out),
                }
            }

            fn out_of(&self, item: &Item) -> usize {
                item.flow as usize % self.outputs()
            }

            fn put(&mut self, item: Item) {
                let out = self.out_of(&item);
                match self {
                    Bank::Bare(q) => q.enqueue(item),
                    Bank::Voq(v) => v.enqueue(out, item),
                }
            }

            /// Serve one item from the first non-empty output at or after
            /// `turn` (round-robin), with the output it left from.
            fn take(&mut self, turn: usize) -> Option<(usize, Item)> {
                let n = self.outputs();
                let out = (0..n).map(|k| (turn + k) % n).find(|&o| !self.queue(o).is_empty())?;
                let item = match self {
                    Bank::Bare(q) => q.dequeue(),
                    Bank::Voq(v) => v.dequeue(out),
                }?;
                Some((out, item))
            }
        }

        /// Theorems 1 and 2 and Lemma 1 on every queue of the bank.
        fn check(bank: &Bank<FlatTwoQueue<Item>>) {
            for o in 0..bank.outputs() {
                bank.queue(o).check_invariants().unwrap();
            }
        }

        fn random_arrivals(rng: &mut SimRng, n_flows: u32, len_max: usize) -> Vec<(u32, u64)> {
            let n = 1 + rng.index(len_max);
            (0..n)
                .map(|_| (rng.range_u64(0, (n_flows - 1) as u64) as u32, rng.range_u64(0, 499)))
                .collect()
        }

        /// Items satisfying the appendix hypotheses: within each flow,
        /// arrival order is generation order and deadlines strictly
        /// increase (each `(flow, gap)` adds at least 1 to its flow's
        /// deadline).
        fn stamp(arrivals: &[(u32, u64)], n_flows: u32) -> Vec<Item> {
            let mut next_deadline = vec![0u64; n_flows as usize];
            let mut next_seq = vec![0u32; n_flows as usize];
            arrivals
                .iter()
                .map(|&(f, gap)| {
                    let f = (f % n_flows) as usize;
                    next_deadline[f] += gap.max(1);
                    next_seq[f] += 1;
                    Item::new(f as u32, next_seq[f] - 1, next_deadline[f])
                })
                .collect()
        }

        /// Drive an arrival/service interleaving through `bank`, checking
        /// Theorems 1–2 and Lemma 1 after every step, and return the
        /// departures. After arrival `i`, one item is served when
        /// `service[i % service.len()]` says so; then the bank drains.
        fn run_model(
            mut bank: Bank<FlatTwoQueue<Item>>,
            items: &[Item],
            service: &[bool],
        ) -> Vec<Item> {
            let mut out = vec![];
            for (i, &item) in items.iter().enumerate() {
                bank.put(item);
                check(&bank);
                if service[i % service.len()] {
                    out.extend(bank.take(i).map(|(_, it)| it));
                    check(&bank);
                }
            }
            while let Some((_, it)) = bank.take(out.len()) {
                check(&bank);
                out.push(it);
            }
            out
        }

        /// Theorem 3: every flow departs in sequence order, and every
        /// item departs exactly once.
        fn assert_in_order(out: &[Item], injected: usize) {
            assert_eq!(out.len(), injected, "conservation");
            let mut last_seq = HashMap::new();
            for it in out {
                if let Some(prev) = last_seq.insert(it.flow, it.seq) {
                    assert!(
                        it.seq > prev,
                        "flow {} delivered seq {} after {}",
                        it.flow,
                        it.seq,
                        prev
                    );
                }
            }
        }

        /// Theorem 3: no out-of-order delivery within any flow, plus
        /// Theorems 1 & 2 and Lemma 1 at every step (checked inside
        /// `run_model`), over many random interleavings.
        #[test]
        fn theorem3_no_out_of_order_delivery() {
            let mut rng = SimRng::new(0x7EA3);
            for _ in 0..150 {
                let n_flows = 1 + rng.range_u64(0, 6) as u32;
                let items = stamp(&random_arrivals(&mut rng, n_flows, 300), n_flows);
                let service: Vec<bool> = (0..1 + rng.index(15)).map(|_| rng.chance(0.5)).collect();
                for bank in shapes(FlatTwoQueue::new) {
                    assert_in_order(&run_model(bank, &items, &service), items.len());
                }
            }
        }

        /// Exhaustive small-case sweep of the same invariants: every
        /// arrival pattern of 2 flows × 5 arrivals × 2 gap choices, with
        /// every service period. Complements the randomized sweep with
        /// certainty on the small state space.
        #[test]
        fn theorem3_exhaustive_small_cases() {
            // Each arrival is (flow ∈ {0,1}, gap ∈ {1, 60}): 4 choices,
            // 5 arrivals -> 1024 patterns × 3 service patterns.
            for pattern in 0..4u32.pow(5) {
                let arrivals: Vec<(u32, u64)> = (0..5)
                    .map(|i| {
                        let c = (pattern / 4u32.pow(i)) % 4;
                        (c % 2, if c / 2 == 0 { 1 } else { 60 })
                    })
                    .collect();
                let items = stamp(&arrivals, 2);
                for service in [&[true][..], &[false, true][..], &[false][..]] {
                    for bank in shapes(FlatTwoQueue::new) {
                        assert_in_order(&run_model(bank, &items, service), 5);
                    }
                }
            }
        }

        /// The dequeue candidate is never less urgent than a plain FIFO's
        /// head under identical history, on every output.
        #[test]
        fn candidate_at_least_as_urgent_as_fifo() {
            let mut rng = SimRng::new(0x51EF);
            for _ in 0..150 {
                let items = stamp(&random_arrivals(&mut rng, 4, 200), 4);
                for (mut tq, mut fifo) in
                    shapes(FlatTwoQueue::new).into_iter().zip(shapes(FlatFifo::new))
                {
                    for &item in &items {
                        tq.put(item);
                        fifo.put(item);
                        for o in 0..tq.outputs() {
                            assert!(tq.queue(o).head_deadline() <= fifo.queue(o).head_deadline());
                        }
                    }
                }
            }
        }

        /// Serve one item and report whether it was an order error: an
        /// item still queued for the same output had a smaller deadline.
        fn serve<Q: SchedQueue<Item>>(
            bank: &mut Bank<Q>,
            pending: &mut Vec<(usize, u64)>,
            turn: usize,
        ) -> u64 {
            let Some((out, it)) = bank.take(turn) else { return 0 };
            let pos = pending.iter().position(|&p| p == (out, it.deadline)).unwrap();
            pending.swap_remove(pos);
            pending.iter().any(|&(o, d)| o == out && d < it.deadline) as u64
        }

        /// Count the §3.4 order errors, serving once every `period`
        /// arrivals and then draining.
        fn count_errors<Q: SchedQueue<Item>>(
            mut bank: Bank<Q>,
            items: &[Item],
            period: usize,
        ) -> u64 {
            let mut errors = 0u64;
            let mut pending: Vec<(usize, u64)> = vec![];
            for (i, item) in items.iter().enumerate() {
                bank.put(*item);
                pending.push((bank.out_of(item), item.deadline));
                if i % period == 0 {
                    errors += serve(&mut bank, &mut pending, i);
                }
            }
            let mut turn = items.len();
            while !pending.is_empty() {
                errors += serve(&mut bank, &mut pending, turn);
                turn += 1;
            }
            errors
        }

        /// Order errors: two-queue <= plain FIFO under identical history.
        #[test]
        fn order_errors_not_worse_than_fifo() {
            let mut rng = SimRng::new(0x0E44);
            for _ in 0..150 {
                let arrivals = random_arrivals(&mut rng, 4, 200);
                if arrivals.len() < 2 {
                    continue;
                }
                let period = 1 + rng.index(3);
                let items = stamp(&arrivals, 4);
                for (tq, fifo) in shapes(FlatTwoQueue::new).into_iter().zip(shapes(FlatFifo::new)) {
                    let tq_err = count_errors(tq, &items, period);
                    let fifo_err = count_errors(fifo, &items, period);
                    assert!(
                        tq_err <= fifo_err,
                        "two-queue errors {tq_err} > fifo errors {fifo_err}"
                    );
                }
            }
        }
    }
}
