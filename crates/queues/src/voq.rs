//! Virtual output queuing: one queue structure per output port.
//!
//! §4.1: "We use virtual output queuing (VOQ) at the switch level, which
//! is the usual solution to avoid head-of-line blocking." Each input
//! buffer is logically partitioned by destination output port; the
//! arbiter for an output port consults only the sub-queues heading to it.

use crate::traits::{Deadlined, SchedQueue};
use dqos_sim_core::SimTime;

/// A bank of queues, one per output port, sharing a byte budget.
#[derive(Debug, Clone)]
pub struct Voq<Q> {
    queues: Vec<Q>,
    bytes: u64,
}

impl<Q> Voq<Q> {
    /// Build a VOQ bank with `n_outputs` sub-queues created by `make`.
    pub fn new(n_outputs: usize, make: impl Fn() -> Q) -> Self {
        Voq { queues: (0..n_outputs).map(|_| make()).collect(), bytes: 0 }
    }

    /// Number of sub-queues.
    pub fn n_outputs(&self) -> usize {
        self.queues.len()
    }

    /// Total bytes across all sub-queues (the shared input-buffer
    /// occupancy that credit flow control accounts).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Borrow a sub-queue.
    pub fn queue(&self, output: usize) -> &Q {
        &self.queues[output]
    }
}

impl<Q> Voq<Q> {
    /// Enqueue an item heading to `output`.
    pub fn enqueue<T: Deadlined>(&mut self, output: usize, item: T)
    where
        Q: SchedQueue<T>,
    {
        self.bytes += item.len_bytes() as u64;
        self.queues[output].enqueue(item);
    }

    /// The candidate deadline offered towards `output`.
    pub fn head_deadline<T: Deadlined>(&self, output: usize) -> Option<SimTime>
    where
        Q: SchedQueue<T>,
    {
        self.queues[output].head_deadline()
    }

    /// Borrow the candidate heading to `output`.
    pub fn peek<T: Deadlined>(&self, output: usize) -> Option<&T>
    where
        Q: SchedQueue<T>,
    {
        self.queues[output].peek()
    }

    /// Whether any item is waiting for `output`.
    pub fn has_for<T: Deadlined>(&self, output: usize) -> bool
    where
        Q: SchedQueue<T>,
    {
        !self.queues[output].is_empty()
    }

    /// Dequeue the candidate heading to `output`.
    pub fn dequeue<T: Deadlined>(&mut self, output: usize) -> Option<T>
    where
        Q: SchedQueue<T>,
    {
        let item = self.queues[output].dequeue()?;
        self.bytes -= item.len_bytes() as u64;
        Some(item)
    }

    /// Total queued items across sub-queues.
    pub fn total_len<T: Deadlined>(&self) -> usize
    where
        Q: SchedQueue<T>,
    {
        self.queues.iter().map(|q| q.len()).sum()
    }

    /// True when every sub-queue is empty.
    pub fn is_empty<T: Deadlined>(&self) -> bool
    where
        Q: SchedQueue<T>,
    {
        self.queues.iter().all(|q| q.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::{FlatFifo, FlatTwoQueue};
    use crate::traits::test_util::Item;

    #[test]
    fn routes_to_sub_queues() {
        let mut v: Voq<FlatFifo<Item>> = Voq::new(4, FlatFifo::new);
        v.enqueue(0, Item::new(0, 0, 10));
        v.enqueue(2, Item::new(1, 0, 20));
        v.enqueue(2, Item::new(1, 1, 30));
        assert!(v.has_for(0));
        assert!(!v.has_for(1));
        assert!(v.has_for(2));
        assert_eq!(v.total_len(), 3);
        assert_eq!(v.head_deadline(2), Some(SimTime::from_ns(20)));
        assert_eq!(v.dequeue(2).unwrap().deadline, 20);
        assert_eq!(v.dequeue(0).unwrap().deadline, 10);
        assert!(v.dequeue(1).is_none());
        assert!(!v.is_empty());
        v.dequeue(2);
        assert!(v.is_empty());
    }

    #[test]
    fn shared_byte_budget() {
        let mut v: Voq<FlatTwoQueue<Item>> = Voq::new(2, FlatTwoQueue::new);
        v.enqueue(0, Item { flow: 0, seq: 0, deadline: 5, len: 100 });
        v.enqueue(1, Item { flow: 1, seq: 0, deadline: 6, len: 200 });
        assert_eq!(v.bytes(), 300);
        v.dequeue(1);
        assert_eq!(v.bytes(), 100);
    }

    #[test]
    fn no_hol_blocking_across_outputs() {
        // A packet stuck for output 0 does not hide packets for output 1
        // — the definitional property of VOQ.
        let mut v: Voq<FlatFifo<Item>> = Voq::new(2, FlatFifo::new);
        v.enqueue(0, Item::new(0, 0, 999)); // "blocked" head for output 0
        v.enqueue(1, Item::new(1, 0, 1));
        assert_eq!(v.dequeue(1).unwrap().deadline, 1);
    }
}
