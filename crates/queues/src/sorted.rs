//! True ordered-insert queues, used at the **end hosts**.
//!
//! §3.2: "In the first queue, packets are stored in ascending eligible
//! time. As soon as the first packet in the queue is eligible, it goes to
//! another queue where packets are sorted according to ascending
//! deadlines." Hosts, unlike single-chip switches, can afford the
//! random-access insertion this needs.
//!
//! [`SortedQueue`] sorts by an explicit key supplied at insert time so
//! the same structure serves both the eligible-time queue (key =
//! eligible time) and the injection queue (key = deadline). Equal keys
//! preserve insertion order (stable).

use crate::traits::{Deadlined, SchedQueue};
use dqos_sim_core::SimTime;
use std::collections::VecDeque;

/// A stable, key-ordered queue.
#[derive(Debug, Clone)]
pub struct SortedQueue<T> {
    // (key, tie-break seq, item), ascending.
    q: VecDeque<(SimTime, u64, T)>,
    seq: u64,
    bytes: u64,
}

impl<T> Default for SortedQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> SortedQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        SortedQueue { q: VecDeque::new(), seq: 0, bytes: 0 }
    }

    /// The smallest key currently queued.
    pub fn head_key(&self) -> Option<SimTime> {
        self.q.front().map(|(k, _, _)| *k)
    }

    /// Number of queued items.
    pub fn len(&self) -> usize {
        self.q.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.q.is_empty()
    }

    /// Total queued bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Borrow the head item.
    pub fn peek(&self) -> Option<&T> {
        self.q.front().map(|(_, _, it)| it)
    }
}

impl<T: Deadlined> SortedQueue<T> {
    /// Insert `item` ordered by `key` (stable among equal keys).
    pub fn insert(&mut self, key: SimTime, item: T) {
        self.bytes += item.len_bytes() as u64;
        let seq = self.seq;
        self.seq += 1;
        // Binary search for the first entry with a strictly greater key;
        // equal keys keep arrival order because seq increases.
        let pos = self.q.partition_point(|(k, s, _)| (*k, *s) <= (key, seq));
        self.q.insert(pos, (key, seq, item));
    }

    /// Remove the head item (smallest key).
    pub fn pop(&mut self) -> Option<T> {
        let (_, _, item) = self.q.pop_front()?;
        self.bytes -= item.len_bytes() as u64;
        Some(item)
    }

    /// Pop the head only if its key is `<= now` (e.g. "the first packet
    /// in the queue is eligible").
    pub fn pop_due(&mut self, now: SimTime) -> Option<T> {
        match self.head_key() {
            Some(k) if k <= now => self.pop(),
            _ => None,
        }
    }
}

/// A `SortedQueue` always keyed by the item's deadline, behaving like
/// the other [`SchedQueue`]s: one stable deadline-sorted injection queue
/// per VC. The NIC keeps per-class runs instead; this is the order they
/// must reproduce, and the reference its differential test runs on.
#[derive(Debug, Clone, Default)]
pub struct DeadlineSortedQueue<T>(SortedQueue<T>);

impl<T> DeadlineSortedQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        DeadlineSortedQueue(SortedQueue::new())
    }
}

impl<T: Deadlined> SchedQueue<T> for DeadlineSortedQueue<T> {
    fn enqueue(&mut self, item: T) {
        let key = item.deadline();
        self.0.insert(key, item);
    }
    fn head_deadline(&self) -> Option<SimTime> {
        self.0.head_key()
    }
    fn peek(&self) -> Option<&T> {
        self.0.peek()
    }
    fn dequeue(&mut self) -> Option<T> {
        self.0.pop()
    }
    fn min_deadline(&self) -> Option<SimTime> {
        // Sorted by deadline: the head is the minimum.
        self.0.head_key()
    }
    fn len(&self) -> usize {
        self.0.len()
    }
    fn bytes(&self) -> u64 {
        self.0.bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::test_util::Item;

    #[test]
    fn orders_by_key() {
        let mut q = SortedQueue::new();
        q.insert(SimTime::from_ns(300), Item::new(0, 0, 300));
        q.insert(SimTime::from_ns(100), Item::new(1, 0, 100));
        q.insert(SimTime::from_ns(200), Item::new(2, 0, 200));
        assert_eq!(q.head_key(), Some(SimTime::from_ns(100)));
        assert_eq!(q.pop().unwrap().flow, 1);
        assert_eq!(q.pop().unwrap().flow, 2);
        assert_eq!(q.pop().unwrap().flow, 0);
    }

    #[test]
    fn stable_among_equal_keys() {
        let mut q = SortedQueue::new();
        for i in 0..5 {
            q.insert(SimTime::from_ns(42), Item::new(i, 0, 42));
        }
        for i in 0..5 {
            assert_eq!(q.pop().unwrap().flow, i);
        }
    }

    #[test]
    fn pop_due_gates_on_time() {
        let mut q = SortedQueue::new();
        q.insert(SimTime::from_ns(100), Item::new(0, 0, 100));
        q.insert(SimTime::from_ns(200), Item::new(1, 0, 200));
        assert!(q.pop_due(SimTime::from_ns(50)).is_none());
        assert_eq!(q.pop_due(SimTime::from_ns(100)).unwrap().flow, 0);
        assert!(q.pop_due(SimTime::from_ns(150)).is_none());
        assert_eq!(q.pop_due(SimTime::from_ns(500)).unwrap().flow, 1);
        assert!(q.is_empty());
    }

    #[test]
    fn deadline_sorted_queue_is_a_sched_queue() {
        let mut q = DeadlineSortedQueue::new();
        q.enqueue(Item::new(0, 0, 500));
        q.enqueue(Item::new(1, 0, 100));
        assert_eq!(q.head_deadline(), Some(SimTime::from_ns(100)));
        assert_eq!(SchedQueue::len(&q), 2);
        assert_eq!(q.dequeue().unwrap().deadline, 100);
    }

    #[test]
    fn byte_accounting() {
        let mut q = SortedQueue::new();
        q.insert(SimTime::from_ns(1), Item { flow: 0, seq: 0, deadline: 1, len: 7 });
        q.insert(SimTime::from_ns(2), Item { flow: 0, seq: 1, deadline: 2, len: 11 });
        assert_eq!(q.bytes(), 18);
        q.pop();
        assert_eq!(q.bytes(), 11);
    }

    /// Dependency-free port of the property: pops come out key-sorted and
    /// stable for any insertion order.
    #[test]
    fn randomized_sorted_and_stable() {
        use dqos_sim_core::SimRng;
        let mut rng = SimRng::new(0x50F7);
        for _ in 0..200 {
            let mut q = SortedQueue::new();
            for i in 0..1 + rng.index(200) {
                let k = rng.range_u64(0, 999);
                q.insert(SimTime::from_ns(k), Item::new(i as u32, 0, k));
            }
            let mut last: Option<(u64, u32)> = None;
            while let Some(it) = q.pop() {
                if let Some((lk, lflow)) = last {
                    assert!(it.deadline >= lk);
                    if it.deadline == lk {
                        assert!(it.flow > lflow, "stability violated");
                    }
                }
                last = Some((it.deadline, it.flow));
            }
        }
    }

    #[cfg(feature = "proptest")]
    mod prop {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Pops come out key-sorted and stable for any insertion order.
            #[test]
            fn prop_sorted_and_stable(keys in proptest::collection::vec(0u64..1000, 1..200)) {
                let mut q = SortedQueue::new();
                for (i, &k) in keys.iter().enumerate() {
                    q.insert(SimTime::from_ns(k), Item::new(i as u32, 0, k));
                }
                let mut last: Option<(u64, u32)> = None;
                while let Some(it) = q.pop() {
                    if let Some((lk, lflow)) = last {
                        prop_assert!(it.deadline >= lk);
                        if it.deadline == lk {
                            prop_assert!(it.flow > lflow, "stability violated");
                        }
                    }
                    last = Some((it.deadline, it.flow));
                }
            }
        }
    }
}
