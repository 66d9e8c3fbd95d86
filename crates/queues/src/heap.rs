//! Deadline-ordered heap buffer — the *Ideal* architecture.
//!
//! Models the pipelined heap (priority queue) of Ioannou & Katevenis
//! [ICC'01]: the packet with the smallest deadline is always at the top,
//! so the arbiter sees the true EDF candidate and order errors cannot
//! occur. The paper uses it as the performance upper bound while arguing
//! its per-port cost is not practical at high radix.
//!
//! Ties on deadline break by arrival order (a stable heap), so behaviour
//! is deterministic and matches what a hardware heap with an age field
//! would do.

use crate::traits::{Deadlined, SchedQueue};
use dqos_sim_core::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

#[derive(Debug, Clone)]
struct Entry<T> {
    deadline: SimTime,
    seq: u64,
    item: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.deadline == other.deadline && self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed for a min-heap on (deadline, seq).
        (other.deadline, other.seq).cmp(&(self.deadline, self.seq))
    }
}

/// A stable min-heap keyed by deadline.
#[derive(Debug, Clone)]
pub struct HeapQueue<T> {
    heap: BinaryHeap<Entry<T>>,
    seq: u64,
    bytes: u64,
}

impl<T> Default for HeapQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> HeapQueue<T> {
    /// An empty heap.
    pub fn new() -> Self {
        HeapQueue { heap: BinaryHeap::new(), seq: 0, bytes: 0 }
    }
}

impl<T: Deadlined> SchedQueue<T> for HeapQueue<T> {
    fn enqueue(&mut self, item: T) {
        self.bytes += item.len_bytes() as u64;
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry { deadline: item.deadline(), seq, item });
    }

    fn head_deadline(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.deadline)
    }

    fn peek(&self) -> Option<&T> {
        self.heap.peek().map(|e| &e.item)
    }

    fn dequeue(&mut self) -> Option<T> {
        let e = self.heap.pop()?;
        self.bytes -= e.item.len_bytes() as u64;
        Some(e.item)
    }

    fn min_deadline(&self) -> Option<SimTime> {
        // A heap's candidate *is* the minimum: order errors impossible.
        self.head_deadline()
    }

    fn len(&self) -> usize {
        self.heap.len()
    }

    fn bytes(&self) -> u64 {
        self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::test_util::Item;

    #[test]
    fn always_exposes_minimum() {
        let mut q = HeapQueue::new();
        q.enqueue(Item::new(0, 0, 300));
        q.enqueue(Item::new(1, 0, 100));
        q.enqueue(Item::new(2, 0, 200));
        assert_eq!(q.head_deadline(), Some(SimTime::from_ns(100)));
        assert_eq!(q.dequeue().unwrap().deadline, 100);
        assert_eq!(q.dequeue().unwrap().deadline, 200);
        assert_eq!(q.dequeue().unwrap().deadline, 300);
    }

    #[test]
    fn ties_break_by_arrival() {
        let mut q = HeapQueue::new();
        q.enqueue(Item::new(7, 0, 100));
        q.enqueue(Item::new(8, 0, 100));
        q.enqueue(Item::new(9, 0, 100));
        assert_eq!(q.dequeue().unwrap().flow, 7);
        assert_eq!(q.dequeue().unwrap().flow, 8);
        assert_eq!(q.dequeue().unwrap().flow, 9);
    }

    #[test]
    fn byte_accounting() {
        let mut q = HeapQueue::new();
        q.enqueue(Item { flow: 0, seq: 0, deadline: 5, len: 42 });
        assert_eq!(q.bytes(), 42);
        q.dequeue();
        assert_eq!(q.bytes(), 0);
    }

    /// Random interleaved enqueue/dequeue against a linear-scan model.
    #[test]
    fn randomized_head_is_min() {
        use dqos_sim_core::SimRng;
        let mut rng = SimRng::new(0x4EA9);
        for _ in 0..100 {
            let mut q = HeapQueue::new();
            let mut model: Vec<u64> = vec![];
            for i in 0..1 + rng.index(300) {
                if rng.chance(0.6) || model.is_empty() {
                    let d = rng.range_u64(0, 999);
                    q.enqueue(Item::new(0, i as u32, d));
                    model.push(d);
                } else {
                    let got = q.dequeue().unwrap().deadline;
                    let min_pos = model
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, &v)| v)
                        .map(|(p, _)| p)
                        .unwrap();
                    assert_eq!(got, model.remove(min_pos));
                }
                assert_eq!(q.head_deadline().map(|t| t.as_ns()), model.iter().min().copied());
            }
        }
    }
}
